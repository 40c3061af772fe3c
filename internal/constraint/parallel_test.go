package constraint_test

// Determinism tests for the parallel solve path (the region fan-out,
// cc.go): at any -solve-jobs setting the solutions, Unsat reports
// (blame paths included), stats, and traces must be byte-identical to
// the sequential solve. The thresholds are floored through the test
// hook so the region fan-out runs on generator-sized systems;
// `go test -race` then doubles as the data-race proof.

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/constraint"
	"repro/internal/obs"
	"repro/internal/qual"
)

// parallelCycleCfgs are cycle-heavy generator shapes spanning the
// interesting regimes: many multi-variable SCCs, structure-level masks
// (several independent classes), and a chain-dominated graph whose
// condensation is deep rather than wide. Cross edges stay sparse so
// every class splits into many connected regions — the shape the
// region fan-out parallelizes; denser cross edges fuse a class into one
// blob, which the fan-out declines.
var parallelCycleCfgs = []benchgen.CycleConfig{
	{Vars: 800, CycleFrac: 0.8, CycleLen: 6, CrossEdges: 40, MaskedFrac: 0.4, Seed: 11},
	{Vars: 800, CycleFrac: 0.5, CycleLen: 4, CrossEdges: 20, MaskedFrac: 0.9, StructMasks: true, Seed: 12},
	{Vars: 600, CycleFrac: 0, CycleLen: 8, CrossEdges: 20, MaskedFrac: 0.3, BitSeeds: true, Seed: 13},
}

// buildParallelCase generates one cycle system and plants a
// contradiction so the Unsat path (blame traversal included) is part
// of every comparison.
func buildParallelCase(t *testing.T, set *qual.Set, cfg benchgen.CycleConfig) *constraint.System {
	t.Helper()
	sys, _ := benchgen.CycleSystem(set, cfg)
	v := constraint.Var(0)
	sys.Add(constraint.C(set.MustElem("tainted")), constraint.V(v), constraint.Reason{Pos: "plant:lo", Msg: "forced taint"})
	sys.Add(constraint.V(v), constraint.C(0), constraint.Reason{Pos: "plant:up", Msg: "forbidden taint"})
	return sys
}

// TestParallelSolveDeterminism solves each shape sequentially and at
// jobs 2 and 8 with the parallel thresholds floored, and requires
// identical solutions, Unsat reports, and stats (modulo the
// parallel-execution counters, which are the one part allowed to
// vary). It also asserts the parallel paths actually ran — a test
// that silently fell back to the sequential loop would prove nothing.
func TestParallelSolveDeterminism(t *testing.T) {
	defer constraint.SetParallelMinsForTest(1, 1, 1, 2)()
	set := set2(t)
	for _, cfg := range parallelCycleCfgs {
		ref := buildParallelCase(t, set, cfg)
		ref.SetSolveJobs(1)
		wantUnsat := ref.Solve()
		if wantUnsat == nil {
			t.Fatalf("cfg %+v: planted contradiction not reported", cfg)
		}
		ws := ref.Stats()
		if ws.Workers != 1 || ws.CCRegions != 0 {
			t.Fatalf("cfg %+v: sequential reference took the parallel path: %+v", cfg, ws)
		}
		for _, jobs := range []int{2, 8} {
			sys := buildParallelCase(t, set, cfg)
			sys.SetSolveJobs(jobs)
			gotUnsat := sys.Solve()
			for v := 0; v < sys.NumVars(); v++ {
				if got, want := sys.Lower(constraint.Var(v)), ref.Lower(constraint.Var(v)); got != want {
					t.Fatalf("cfg %+v jobs=%d: lower(κ%d)=%#x want %#x", cfg, jobs, v, uint64(got), uint64(want))
				}
				if got, want := sys.Upper(constraint.Var(v)), ref.Upper(constraint.Var(v)); got != want {
					t.Fatalf("cfg %+v jobs=%d: upper(κ%d)=%#x want %#x", cfg, jobs, v, uint64(got), uint64(want))
				}
			}
			if !reflect.DeepEqual(gotUnsat, wantUnsat) {
				t.Fatalf("cfg %+v jobs=%d: unsat mismatch\n got: %v\nwant: %v", cfg, jobs, gotUnsat, wantUnsat)
			}
			gs := sys.Stats()
			if gs.Workers <= 1 || gs.CCRegions == 0 {
				t.Fatalf("cfg %+v jobs=%d: parallel path did not run: %+v", cfg, jobs, gs)
			}
			gs.Workers, gs.CCRegions = ws.Workers, ws.CCRegions
			if gs != ws {
				t.Fatalf("cfg %+v jobs=%d: stats mismatch\n got: %+v\nwant: %+v", cfg, jobs, gs, ws)
			}
		}
	}
}

// TestParallelSolveDeclinedWorkers pins what Workers reports when the
// parallel path is allowed but no class fans out: a system large
// enough to pass the edge threshold but below the region fan-out's
// class size solves sequentially, and its stats must say so.
func TestParallelSolveDeclinedWorkers(t *testing.T) {
	set := set2(t)
	sys, _ := benchgen.CycleSystem(set, benchgen.CycleConfig{Vars: 3000, CycleFrac: 0.5, CycleLen: 6, CrossEdges: 1000, Seed: 41})
	if n := sys.NumConstraints(); n < 2048 {
		t.Fatalf("system too small to reach the parallel path: %d constraints", n)
	}
	sys.SetSolveJobs(8)
	sys.Solve()
	if st := sys.Stats(); st.Workers != 1 || st.CCRegions != 0 {
		t.Fatalf("declined fan-out reports a worker pool: %+v", st)
	}
}

// TestParallelSolveRegions pins the region fan-out tier (cc.go): with
// no cross edges the cycle generator emits many disjoint clusters under
// one full-mask class, so whole connected components fan out to the
// pool. Solutions, Unsat reports, stats, and traces must match the
// sequential solve exactly, and the path must actually have run.
func TestParallelSolveRegions(t *testing.T) {
	defer constraint.SetParallelMinsForTest(1, 1, 1, 2)()
	set := set2(t)
	cfg := benchgen.CycleConfig{Vars: 1500, CycleFrac: 0.7, CycleLen: 4, CrossEdges: 0, MaskedFrac: 0, BitSeeds: true, Seed: 31}
	ref := buildParallelCase(t, set, cfg)
	ref.SetSolveJobs(1)
	wantUnsat := ref.Solve()
	if wantUnsat == nil {
		t.Fatal("planted contradiction not reported")
	}
	ws := ref.Stats()
	if ws.CCRegions != 0 {
		t.Fatalf("sequential reference took the region path: %+v", ws)
	}
	for _, jobs := range []int{2, 8} {
		sys := buildParallelCase(t, set, cfg)
		sys.SetSolveJobs(jobs)
		gotUnsat := sys.Solve()
		gs := sys.Stats()
		if gs.CCRegions == 0 {
			t.Fatalf("jobs=%d: region fan-out did not run: %+v", jobs, gs)
		}
		for v := 0; v < sys.NumVars(); v++ {
			if got, want := sys.Lower(constraint.Var(v)), ref.Lower(constraint.Var(v)); got != want {
				t.Fatalf("jobs=%d: lower(κ%d)=%#x want %#x", jobs, v, uint64(got), uint64(want))
			}
			if got, want := sys.Upper(constraint.Var(v)), ref.Upper(constraint.Var(v)); got != want {
				t.Fatalf("jobs=%d: upper(κ%d)=%#x want %#x", jobs, v, uint64(got), uint64(want))
			}
		}
		if !reflect.DeepEqual(gotUnsat, wantUnsat) {
			t.Fatalf("jobs=%d: unsat mismatch\n got: %v\nwant: %v", jobs, gotUnsat, wantUnsat)
		}
		gs.Workers, gs.CCRegions = ws.Workers, ws.CCRegions
		if gs != ws {
			t.Fatalf("jobs=%d: stats mismatch\n got: %+v\nwant: %+v", jobs, gs, ws)
		}
	}
	// Trace bytes must be identical too: the region path emits the same
	// class span with the same attribute values.
	run := func(jobs int) []byte {
		tracer := obs.NewTracer(obs.NewFakeClock(time.Unix(0, 0), time.Microsecond))
		ctx := obs.WithTracer(context.Background(), tracer)
		sys := buildParallelCase(t, set, cfg)
		sys.SetSolveJobs(jobs)
		sys.SolveContext(ctx)
		var buf bytes.Buffer
		if err := tracer.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	golden := run(1)
	for _, jobs := range []int{2, 8} {
		if got := run(jobs); !bytes.Equal(got, golden) {
			t.Errorf("trace for jobs=%d differs from jobs=1", jobs)
		}
	}
}

// TestParallelSolveTraceGolden checks the observability invariant:
// spans are emitted only from the sequential class loop, in class-index
// order, never from region workers, so under a fake clock the exported
// trace is byte-identical at every worker count. The multi-class shape
// must fan regions out inside its classes, or the check proves nothing.
func TestParallelSolveTraceGolden(t *testing.T) {
	defer constraint.SetParallelMinsForTest(1, 1, 1, 2)()
	set := set2(t)
	run := func(jobs int) []byte {
		tracer := obs.NewTracer(obs.NewFakeClock(time.Unix(0, 0), time.Microsecond))
		ctx := obs.WithTracer(context.Background(), tracer)
		sys := buildParallelCase(t, set, parallelCycleCfgs[1])
		sys.SetSolveJobs(jobs)
		sys.SolveContext(ctx)
		if st := sys.Stats(); jobs > 1 && st.CCRegions == 0 {
			t.Fatalf("jobs=%d: region fan-out did not run: %+v", jobs, st)
		}
		var buf bytes.Buffer
		if err := tracer.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	golden := run(1)
	for _, jobs := range []int{2, 8} {
		if got := run(jobs); !bytes.Equal(got, golden) {
			t.Errorf("trace for jobs=%d differs from jobs=1:\n jobs=1: %s\n jobs=%d: %s", jobs, golden, jobs, got)
		}
	}
}

// TestParallelSolveScratchReuse re-solves through one System so the
// per-worker scratch pool and the cached region decomposition are
// exercised on their reuse path, not just first allocation.
func TestParallelSolveScratchReuse(t *testing.T) {
	defer constraint.SetParallelMinsForTest(1, 1, 1, 2)()
	set := set2(t)
	sys := buildParallelCase(t, set, parallelCycleCfgs[0])
	sys.SetSolveJobs(4)
	first := sys.Solve()
	// Growing the system invalidates the cached solution and re-enters
	// the parallel path with warm scratch.
	w := sys.Fresh()
	sys.Add(constraint.V(constraint.Var(1)), constraint.V(w), constraint.Reason{})
	second := sys.Solve()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("unsat set changed after an unrelated edge:\n first: %v\nsecond: %v", first, second)
	}
	ref := buildParallelCase(t, set, parallelCycleCfgs[0])
	ref.SetSolveJobs(1)
	rw := ref.Fresh()
	ref.Add(constraint.V(constraint.Var(1)), constraint.V(rw), constraint.Reason{})
	ref.Solve()
	for v := 0; v < sys.NumVars(); v++ {
		if got, want := sys.Lower(constraint.Var(v)), ref.Lower(constraint.Var(v)); got != want {
			t.Fatalf("re-solve lower(κ%d)=%#x want %#x", v, uint64(got), uint64(want))
		}
		if got, want := sys.Upper(constraint.Var(v)), ref.Upper(constraint.Var(v)); got != want {
			t.Fatalf("re-solve upper(κ%d)=%#x want %#x", v, uint64(got), uint64(want))
		}
	}
}
