// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (Section 4.4) as testing.B benchmarks:
//
//   - BenchmarkTable1Generate — producing the benchmark programs of Table 1;
//   - BenchmarkTable2Compile  — the "Compile time" column (parsing);
//   - BenchmarkCParse         — the same parse on a 40k-line benchgen
//     corpus, with allocations;
//   - BenchmarkTable2Mono     — the "Mono time" column;
//   - BenchmarkTable2Poly     — the "Poly time" column;
//   - BenchmarkFigure6        — the full pipeline behind Figure 6;
//
// plus ablations for the design choices DESIGN.md calls out:
//
//   - BenchmarkAblationPolyFull      — polymorphic inference without
//     scheme simplification (whole-SCC constraint replay);
//   - BenchmarkAblationPolyRec       — polymorphic recursion;
//   - BenchmarkAblationLambdaPoly    — mono vs poly on the example
//     language (generated programs);
//   - BenchmarkSolverScaling         — the atomic-subtyping solver alone;
//   - BenchmarkGoFrontSelf           — the Go front end analyzing one of
//     this repository's own packages (the self-analysis workload).
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/cfront"
	"repro/internal/constinfer"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/experiment"
	_ "repro/internal/gofront"
	"repro/internal/lambda"
	"repro/internal/progen"
	"repro/internal/qual"
)

// suite caches generated sources and parsed files across benchmarks.
type suiteEntry struct {
	cfg  benchgen.Config
	src  string
	file *cfront.File
}

var suiteCache []suiteEntry

func suite(b *testing.B) []suiteEntry {
	b.Helper()
	if suiteCache != nil {
		return suiteCache
	}
	for _, cfg := range benchgen.PaperSuite() {
		src := benchgen.Generate(cfg)
		f, err := cfront.Parse(cfg.Name+".c", src)
		if err != nil {
			b.Fatalf("%s: %v", cfg.Name, err)
		}
		suiteCache = append(suiteCache, suiteEntry{cfg: cfg, src: src, file: f})
	}
	return suiteCache
}

func BenchmarkTable1Generate(b *testing.B) {
	for _, cfg := range benchgen.PaperSuite() {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := benchgen.Generate(cfg)
				if len(src) == 0 {
					b.Fatal("empty program")
				}
			}
		})
	}
}

func BenchmarkTable2Compile(b *testing.B) {
	for _, e := range suite(b) {
		e := e
		b.Run(e.cfg.Name, func(b *testing.B) {
			b.SetBytes(int64(len(e.src)))
			for i := 0; i < b.N; i++ {
				if _, err := cfront.Parse(e.cfg.Name+".c", e.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCParse parses a seeded 40k-line benchgen corpus. The lexer
// allocates nothing per token, so a per-token allocation shows up here
// as a jump in B/op and allocs/op.
func BenchmarkCParse(b *testing.B) {
	src := benchgen.Generate(benchgen.ParallelCorpus(40000, 1))
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfront.Parse("synth-40k.c", src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Mono(b *testing.B) {
	for _, e := range suite(b) {
		e := e
		b.Run(e.cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := constinfer.Analyze([]*cfront.File{e.file}, constinfer.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Conflicts) > 0 {
					b.Fatal("conflicts")
				}
			}
		})
	}
}

func BenchmarkTable2Poly(b *testing.B) {
	for _, e := range suite(b) {
		e := e
		b.Run(e.cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := constinfer.Analyze([]*cfront.File{e.file},
					constinfer.Options{Poly: true, Simplify: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Conflicts) > 0 {
					b.Fatal("conflicts")
				}
			}
		})
	}
}

// benchDriver runs the staged pipeline over the whole multi-file paper
// suite with a fixed worker count; the serial/parallel pair below
// measures the constraint-generation speedup on multi-core hosts.
func benchDriver(b *testing.B, jobs int) {
	entries := suite(b)
	files := make([]*cfront.File, len(entries))
	for i, e := range entries {
		files[i] = e.file
	}
	cfg := driver.Config{
		Options: constinfer.Options{Poly: true, Simplify: true},
		Jobs:    jobs,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := driver.RunFiles(cfg, files)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report == nil || res.HasErrors() {
			b.Fatalf("driver errors: %v", res.Diagnostics)
		}
	}
}

// BenchmarkDriverSerial is the staged pipeline with a single
// constraint-generation worker.
func BenchmarkDriverSerial(b *testing.B) { benchDriver(b, 1) }

// BenchmarkDriverParallel is the same pipeline with a GOMAXPROCS-bounded
// worker pool; with ≥4 cores it should beat BenchmarkDriverSerial while
// producing byte-identical output (see TestCqualGoldenDeterminism).
func BenchmarkDriverParallel(b *testing.B) { benchDriver(b, 0) }

// BenchmarkGoFrontSelf is the Go front end's flagship workload: the
// checker analyzing its own constraint-solver package end to end
// (load, type-check, θ translation, constrain, solve, classify).
func BenchmarkGoFrontSelf(b *testing.B) {
	cfg := driver.Config{Lang: "go"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := driver.Run(cfg, []driver.Source{{Path: "./internal/constraint"}})
		if err != nil {
			b.Fatal(err)
		}
		if res.Report == nil || res.Report.Functions == 0 {
			b.Fatalf("self-analysis produced no report: %v", res.Diagnostics)
		}
	}
}

// BenchmarkFigure6 runs the complete experiment pipeline (generate, parse,
// mono, poly, render) for the two smallest benchmarks, the unit of work
// behind one bar of Figure 6.
func BenchmarkFigure6(b *testing.B) {
	cfgs := benchgen.PaperSuite()[:2]
	for i := 0; i < b.N; i++ {
		var results []*experiment.Result
		for _, cfg := range cfgs {
			r, err := experiment.Run(cfg, constinfer.Options{Simplify: true})
			if err != nil {
				b.Fatal(err)
			}
			results = append(results, r)
		}
		if out := experiment.Figure6(results); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkAblationPolyFull measures polymorphic inference without the
// Section 6 scheme simplification: schemes replay their whole SCC
// fragment at every instantiation.
func BenchmarkAblationPolyFull(b *testing.B) {
	for _, e := range suite(b)[:4] { // the larger two take seconds per op
		e := e
		b.Run(e.cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := constinfer.Analyze([]*cfront.File{e.file},
					constinfer.Options{Poly: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPolyRec measures the polymorphic-recursion extension.
func BenchmarkAblationPolyRec(b *testing.B) {
	for _, e := range suite(b)[:4] {
		e := e
		b.Run(e.cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := constinfer.Analyze([]*cfront.File{e.file},
					constinfer.Options{Poly: true, PolyRec: true, Simplify: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLambdaPoly compares monomorphic and polymorphic
// qualifier inference on generated programs of the example language.
func BenchmarkAblationLambdaPoly(b *testing.B) {
	spec := core.ConstSpec()
	g := progen.New(2024, progen.Config{MaxDepth: 8, Annotate: []string{"const"}})
	progs := make([]lambda.Expr, 40)
	for i := range progs {
		progs[i] = g.Program()
	}
	for _, mono := range []bool{false, true} {
		name := "poly"
		if mono {
			name = "mono"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					c := spec.NewChecker()
					c.Monomorphic = mono
					if _, err := c.Check(nil, p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// solverBenchSet is the product lattice the solver benchmarks run over:
// two components, so masked edges and condensation classes are exercised.
func solverBenchSet() *qual.Set {
	return qual.MustSet(
		qual.Qualifier{Name: "const", Sign: qual.Positive},
		qual.Qualifier{Name: "tainted", Sign: qual.Positive},
	)
}

// solverBenchSetWide is an eight-analysis product lattice, the
// multi-analysis registry shape: each analysis masks its constraints to
// its own lattice component, so condensation classes carry real work.
func solverBenchSetWide() *qual.Set {
	quals := make([]qual.Qualifier, 8)
	for i := range quals {
		quals[i] = qual.Qualifier{Name: fmt.Sprintf("q%d", i), Sign: qual.Positive}
	}
	return qual.MustSet(quals...)
}

// BenchmarkSolverScaling measures the atomic-subtyping solver — the core
// [HR97] operation — on generated graphs of varying ⊑-cycle density.
// cycles=0.0 is the classic seeded-chain case; higher densities are what
// the condensed engine collapses. The analyses=8 shape is the headline:
// long recursion cycles local to one analysis of a wide product lattice,
// where the per-edge fixpoint circulates every seed around every cycle
// while the condensed engine solves each cycle as a single node.
func BenchmarkSolverScaling(b *testing.B) {
	set := solverBenchSet()
	for _, size := range []int{1000, 10000, 100000} {
		for _, frac := range []float64{0, 0.5, 0.9} {
			b.Run(fmt.Sprintf("n=%d/cycles=%.1f", size, frac), func(b *testing.B) {
				sys, _ := benchgen.CycleSystem(set, benchgen.CycleConfig{
					Vars:       size,
					CycleFrac:  frac,
					CycleLen:   8,
					CrossEdges: size / 4,
					MaskedFrac: 0.2,
					Seed:       int64(size),
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if errs := sys.Solve(); errs != nil {
						b.Fatal("unsat")
					}
				}
			})
		}
	}
	// Shared flow graph (full-mask edges — every analysis rides the same
	// value-flow edges), per-analysis seeds: one wave per component for a
	// per-edge fixpoint, a single sweep for the condensed engine.
	wide := solverBenchSetWide()
	for _, size := range []int{10000, 100000} {
		for _, frac := range []float64{0.5, 0.9} {
			b.Run(fmt.Sprintf("analyses=8/n=%d/cycles=%.1f", size, frac), func(b *testing.B) {
				sys, _ := benchgen.CycleSystem(wide, benchgen.CycleConfig{
					Vars:       size,
					CycleFrac:  frac,
					CycleLen:   64,
					CrossEdges: size / 4,
					Seeds:      size / 4,
					Bounds:     size / 4,
					BitSeeds:   true,
					Seed:       int64(size),
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if errs := sys.Solve(); errs != nil {
						b.Fatal("unsat")
					}
				}
			})
		}
	}
	// Analysis-local flow (structure-level masks): cycles live inside one
	// analysis's lattice component, the shape per-class condensation
	// collapses without touching the other components.
	for _, size := range []int{100000} {
		b.Run(fmt.Sprintf("analyses=8/local/n=%d/cycles=0.9", size), func(b *testing.B) {
			sys, _ := benchgen.CycleSystem(wide, benchgen.CycleConfig{
				Vars:        size,
				CycleFrac:   0.9,
				CycleLen:    64,
				CrossEdges:  size / 4,
				Seeds:       size / 4,
				Bounds:      size / 4,
				MaskedFrac:  0.95,
				StructMasks: true,
				BitSeeds:    true,
				Seed:        int64(size),
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if errs := sys.Solve(); errs != nil {
					b.Fatal("unsat")
				}
			}
		})
	}
}

// BenchmarkDeltaWarmResolve compares a cold solve of the n=20k cycle
// workload against a retained constraint.Session re-solving it after a
// one-fragment edit (the delta re-solve engine's headline case; see
// experiment.MeasureDelta and BENCH_6.json). System construction is
// excluded on both sides.
func BenchmarkDeltaWarmResolve(b *testing.B) {
	const (
		n        = 20000
		fragSize = 64
	)
	set := solverBenchSet()
	gen, _ := benchgen.CycleSystem(set, benchgen.CycleConfig{
		Vars:       n,
		CycleFrac:  0.5,
		CycleLen:   8,
		CrossEdges: n / 4,
		MaskedFrac: 0.2,
		Seed:       n,
	})
	cons := gen.Constraints()
	nv := gen.NumVars()
	nfrags := (len(cons) + fragSize - 1) / fragSize
	editFrag := nfrags / 2
	// build replays the generated constraints into a fresh system; ver > 0
	// renames the edit fragment's key, which a retained session sees as
	// one function's constraints removed and re-added.
	build := func(ver int) (*constraint.System, []constraint.FragmentSpan) {
		sys := constraint.NewSystem(set)
		for i := 0; i < nv; i++ {
			sys.Fresh()
		}
		var spans []constraint.FragmentSpan
		for i := 0; i < nfrags; i++ {
			start, end := i*fragSize, (i+1)*fragSize
			if end > len(cons) {
				end = len(cons)
			}
			at := sys.NumConstraints()
			for _, c := range cons[start:end] {
				sys.AddMasked(c.L, c.R, c.Mask, c.Why)
			}
			key := fmt.Sprintf("frag:%d", i)
			if i == editFrag && ver > 0 {
				key = fmt.Sprintf("frag:%d@%d", i, ver)
			}
			spans = append(spans, constraint.FragmentSpan{Key: key, Start: at, End: sys.NumConstraints()})
		}
		return sys, spans
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys, _ := build(0)
			b.StartTimer()
			if errs := sys.Solve(); errs != nil {
				b.Fatal("unsat")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ss := constraint.NewSession(set)
		first, spans := build(0)
		ss.Solve(first, spans) // retained baseline
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys, spans := build(i + 1)
			b.StartTimer()
			if errs := ss.Solve(sys, spans); errs != nil {
				b.Fatal("unsat")
			}
			if d := ss.Delta(); !d.Applied {
				b.Fatalf("warm round fell back: %+v", d)
			}
		}
	})
}

// BenchmarkRestrictScaling measures the scheme-simplification projection
// (constraint.Restrict) on cycle-heavy graphs: the let-generalization hot
// path of polymorphic inference.
func BenchmarkRestrictScaling(b *testing.B) {
	set := solverBenchSet()
	for _, size := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			sys, iface := benchgen.CycleSystem(set, benchgen.CycleConfig{
				Vars:       size,
				CycleFrac:  0.8,
				CycleLen:   8,
				CrossEdges: size / 4,
				MaskedFrac: 0.2,
				Seed:       int64(size),
			})
			cons := sys.Constraints()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := constraint.Restrict(set, cons, iface); len(out) == 0 {
					b.Fatal("empty projection")
				}
			}
		})
	}
}
