// Command probe is the traced arm of the benchmark: it replaces cqual in
// the traced c_batch samples and re-analyzes the traced cquald_mix Go
// requests. It analyzes its inputs the way cqual -json does, but calls
// each layer's public entry point itself, in the driver's order, and
// wraps every call in a span carrying wall time and runtime.MemStats
// allocation deltas. Nothing inside the program is instrumented: the spans are
// taken around driver.LookupFrontEnd(lang).Load/.Parse,
// Program.NewEngine plus Engine.Prepare, Engine.ConstrainContext,
// Engine.SolveSystemContext and Engine.Classify.
//
// Spans stay in memory and are written out once, at exit, as one JSON
// object on stdout together with the rendered report, so the harness
// can check that report against an untraced cqual -json run (or the
// daemon's reply) for the same inputs.
//
// Usage:
//
//	probe [-lang c|go] [-poly] [-analysis LIST] [-prelude FILES] input ...
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/constinfer"
	"repro/internal/constraint"
	"repro/internal/driver"
	_ "repro/internal/gofront" // registers the Go front end
	"repro/internal/qual"
)

// Span is one timed call into a layer.
type Span struct {
	Name       string  `json:"name"`
	Layer      string  `json:"layer"`
	Parent     string  `json:"parent,omitempty"`
	StartMS    float64 `json:"start_ms"`
	DurMS      float64 `json:"dur_ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
}

// Output is what the probe prints at exit.
type Output struct {
	Report    string                `json:"report"`
	Spans     []Span                `json:"spans"`
	Solver    constraint.SolveStats `json:"solver"`
	Notes     int                   `json:"type_error_notes"`
	GCCPUFrac float64               `json:"gc_cpu_frac"`
}

type recorder struct {
	origin time.Time
	spans  []Span
}

// span runs fn as one child span of the probe's root span.
func (r *recorder) span(layer, name string, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	r.spans = append(r.spans, Span{
		Name: name, Layer: layer, Parent: "probe.run",
		StartMS:    float64(start.Sub(r.origin).Nanoseconds()) / 1e6,
		DurMS:      float64(dur.Nanoseconds()) / 1e6,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
	})
}

func main() {
	lang := flag.String("lang", "c", "front end")
	poly := flag.Bool("poly", false, "polymorphic inference")
	analysisFlag := flag.String("analysis", "const", "comma-separated analyses")
	preludeFlag := flag.String("prelude", "", "comma-separated prelude files")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: probe [-lang c|go] [-poly] [-analysis LIST] [-prelude FILES] input ...")
		os.Exit(2)
	}
	out, err := run(*lang, *poly, splitList(*analysisFlag), splitList(*preludeFlag), flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(2)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(2)
	}
}

func run(lang string, poly bool, analyses, preludePaths, inputs []string) (*Output, error) {
	rec := &recorder{origin: time.Now()}
	var preludes []driver.PreludeFile
	for _, p := range preludePaths {
		text, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		preludes = append(preludes, driver.PreludeFile{Path: p, Text: string(text)})
	}
	cfg := driver.Config{
		Lang:     lang,
		Options:  constinfer.Options{Poly: poly},
		Analyses: analyses,
		Preludes: preludes,
	}
	fe, ok := driver.LookupFrontEnd(lang)
	if !ok {
		return nil, fmt.Errorf("unknown language %q", lang)
	}
	if err := fe.Check(cfg); err != nil {
		return nil, err
	}
	feLayer := "cfront"
	engLayer := "constinfer"
	if lang == "go" {
		feLayer, engLayer = "gofront", "gofront"
	}
	ctx := context.Background()
	res := &driver.Result{Config: cfg}

	var files []driver.Source
	var loadErrs, parseErrs []error
	rec.span(feLayer, feLayer+".load", func() { files, loadErrs = fe.Load(driver.FileSources(inputs...)) })
	rec.span(feLayer, feLayer+".parse", func() { res.Program, parseErrs = fe.Parse(ctx, files, loadErrs) })
	if cp, ok := res.Program.(*driver.CProgram); ok {
		res.Files = cp.Files
	}
	for i := range files {
		if loadErrs[i] != nil || parseErrs[i] != nil {
			return nil, fmt.Errorf("front-end failure on %s", files[i].Path)
		}
	}
	notes := 0
	if n, ok := res.Program.(interface{ Notes() []driver.Diagnostic }); ok {
		for _, d := range n.Notes() {
			res.Diagnostics = append(res.Diagnostics, d)
			if d.Code == "go-type-error" {
				notes++
			}
		}
	}

	suite, err := newSuite(cfg)
	if err != nil {
		return nil, err
	}
	var eng driver.Engine
	rec.span(engLayer, engLayer+".prepare", func() {
		eng = res.Program.NewEngine(cfg, suite)
		if sj, ok := eng.(interface{ SetSolveJobs(int) }); ok {
			sj.SetSolveJobs(cfg.SolveJobs)
		}
		eng.Prepare()
	})
	if ca, ok := eng.(*constinfer.Analysis); ok {
		res.Analysis = ca
	}
	rec.span(engLayer, engLayer+".constrain", func() { eng.ConstrainContext(ctx, cfg.Jobs) })
	var conflicts []*constraint.Unsat
	rec.span("constraint", "constraint.solve", func() { conflicts = eng.SolveSystemContext(ctx) })
	res.Solver = eng.SolveStats()
	rec.span(engLayer, engLayer+".classify", func() { res.Report = eng.Classify(conflicts) })

	var report []byte
	rec.span("driver", "driver.report", func() {
		for _, u := range conflicts {
			res.Diagnostics = append(res.Diagnostics, conflictDiagnostic(eng.Set(), suite, u))
		}
		report, err = res.JSON()
	})
	if err != nil {
		return nil, err
	}
	return &Output{
		Report:    string(report),
		Spans:     rec.spans,
		Solver:    res.Solver,
		Notes:     notes,
		GCCPUFrac: gcCPUFrac(),
	}, nil
}

// newSuite binds the selected analyses and preludes the way the
// driver's Build stage does.
func newSuite(cfg driver.Config) (*analysis.Suite, error) {
	var preludes []*analysis.Prelude
	for _, p := range cfg.Preludes {
		pr, err := analysis.ParsePrelude(p.Path, p.Text)
		if err != nil {
			return nil, err
		}
		preludes = append(preludes, pr)
	}
	return analysis.NewSuite(cfg.AnalysisNames(), preludes)
}

// conflictDiagnostic renders an unsatisfiable constraint as the driver's
// Report stage does; the harness's byte comparison against cqual -json
// catches any drift from the driver's own rendering.
func conflictDiagnostic(set *qual.Set, suite *analysis.Suite, u *constraint.Unsat) driver.Diagnostic {
	d := driver.Diagnostic{
		Pos:      u.Con.Why.Pos,
		Severity: driver.SevError,
		Stage:    driver.StageSolve,
		Code:     "qualifier-conflict",
		Analysis: suite.Owner(u.Lower &^ u.Bound),
		Message: fmt.Sprintf("qualifier %s does not fit under bound %s (%s)",
			set.DescribeMask(u.Lower, u.Con.Mask), set.DescribeMask(u.Bound, u.Con.Mask), u.Con.Why.Msg),
	}
	for _, c := range u.Path {
		d.Flow = append(d.Flow, driver.FlowStep{
			Pos:  c.Why.Pos,
			Note: fmt.Sprintf("%s ⊑ %s (%s)", c.L.FormatMask(set, c.Mask), c.R.FormatMask(set, c.Mask), c.Why.Msg),
		})
	}
	return d
}

// gcCPUFrac is the share of the process's CPU time spent in the
// garbage collector so far.
func gcCPUFrac() float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 || s[1].Value.Float64() == 0 {
		return 0
	}
	return s[0].Value.Float64() / s[1].Value.Float64()
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
