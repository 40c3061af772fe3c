package main

// The closed-loop batch workload: one client runs one fresh analyzer
// process at a time and waits for it, as a CLI or CI user does. Nothing
// survives between samples, so no process-lifetime cache can pay off.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// cBatchLines sizes the c_batch corpus: large enough that cfront and
// constinfer dominate process start-up, small enough for ~25 mono/poly
// pairs in a 45-second window.
const cBatchLines = 40000

// batchInput is one kind of closed-loop sample.
type batchInput struct {
	name  string
	dir   string
	args  []string // cqual arguments; cqual prints a JSON report
	lines int
	// check is the known answer for cqual's output.
	check func(p proc) error
	// probeArgs run the same analysis through the probe.
	probeArgs []string
}

// sampleRec is one sample as written to the results file; probe spans
// ride along on traced samples.
type sampleRec struct {
	Input   string    `json:"input"`
	Traced  bool      `json:"traced"`
	Cycle   int       `json:"cycle"`
	StartMS float64   `json:"start_ms"`
	WallMS  float64   `json:"wall_ms"`
	CPUS    float64   `json:"cpu_s"`
	RSSMB   float64   `json:"rss_mb"`
	Probe   *probeOut `json:"probe,omitempty"`
	lines   int
}

// probeOut is the probe's exit record (see bench/probe), less the
// report, which stays out of the results file.
type probeOut struct {
	report string
	Spans  []probeSpan `json:"spans"`
	Solver struct {
		Components      int `json:"Components"`
		SCCsCollapsed   int `json:"SCCsCollapsed"`
		ParallelClasses int `json:"ParallelClasses"`
		SweepLevels     int `json:"SweepLevels"`
		CCRegions       int `json:"CCRegions"`
	} `json:"solver"`
	Notes     int     `json:"type_error_notes"`
	GCCPUFrac float64 `json:"gc_cpu_frac"`
}

type probeSpan struct {
	Name       string  `json:"name"`
	Layer      string  `json:"layer"`
	Parent     string  `json:"parent"`
	StartMS    float64 `json:"start_ms"`
	DurMS      float64 `json:"dur_ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
}

// batch is the state of one closed-loop run.
type batch struct {
	e       *env
	o       *outcome
	inputs  []batchInput
	first   map[string][]byte // first cqual output per input
	samples []sampleRec
	origin  time.Time
	cycle   int // the cycle running now, counted over both halves
}

// loop runs whole cycles over the inputs for about dur: a new cycle
// starts only while the mean cycle time still fits, so every run sees
// each input equally often. At least one cycle always runs.
func (b *batch) loop(dur time.Duration, traced bool) error {
	start := time.Now()
	for cycle := 0; ; cycle++ {
		if cycle > 0 {
			mean := time.Since(start) / time.Duration(cycle)
			if time.Since(start)+mean > dur {
				return nil
			}
		}
		b.cycle++
		for _, in := range b.inputs {
			var err error
			if traced {
				err = b.probe(in)
			} else {
				err = b.sample(in)
			}
			if err != nil {
				return err
			}
		}
	}
}

// sample runs cqual once and checks its output.
func (b *batch) sample(in batchInput) error {
	at := time.Since(b.origin)
	b.o.attempted++
	p, err := b.e.runProc(in.dir, "cqual", in.args...)
	if err != nil {
		return err
	}
	if p.crashed() {
		b.fail(in.name, p)
		return nil
	}
	b.samples = append(b.samples, sampleRec{Input: in.name, Cycle: b.cycle, StartMS: ms(at), WallMS: p.wallMS, CPUS: p.cpuS, RSSMB: p.rssMB, lines: in.lines})
	b.verdict(in.name, in.check(p))
	if first, ok := b.first[in.name]; ok {
		b.verdict(in.name+" (repeat)", sameReport(first, p.stdout))
	} else {
		b.first[in.name] = p.stdout
	}
	return nil
}

// fail counts a crashed sample; the run goes on.
func (b *batch) fail(what string, p proc) {
	b.o.failed++
	b.o.v.note(fmt.Sprintf("%s: exit %d: %s", what, p.exit, p.stderr))
}

func (b *batch) verdict(what string, err error) {
	if err != nil {
		b.o.v.bad(what, err)
	} else {
		b.o.v.ok()
	}
}

// probe runs the traced helper once and checks that its report is the
// untraced cqual report of the same input.
func (b *batch) probe(in batchInput) error {
	ref := b.first[in.name]
	at := time.Since(b.origin)
	b.o.attempted++
	p, err := b.e.runProc(in.dir, "probe", in.probeArgs...)
	if err != nil {
		return err
	}
	if p.crashed() {
		b.fail(in.name+" (probe)", p)
		return nil
	}
	var out struct {
		probeOut
		Report string `json:"report"`
	}
	if err := json.Unmarshal(p.stdout, &out); err != nil {
		return fmt.Errorf("probe output: %w", err)
	}
	out.probeOut.report = out.Report
	b.samples = append(b.samples, sampleRec{Input: in.name, Traced: true, Cycle: b.cycle, StartMS: ms(at), WallMS: p.wallMS, CPUS: p.cpuS, RSSMB: p.rssMB, Probe: &out.probeOut, lines: in.lines})
	b.verdict(in.name+" (probe vs cqual)", sameReport(ref, []byte(out.Report)))
	return nil
}

// run executes the untraced loop, or with tracing half the window
// untraced and half through the probe, and derives the metrics.
func (b *batch) run() error {
	b.origin = time.Now()
	if !b.e.trace {
		if err := b.loop(b.e.window, false); err != nil {
			return err
		}
	} else {
		if err := b.loop(b.e.window/2, false); err != nil {
			return err
		}
		if err := b.loop(b.e.window/2, true); err != nil {
			return err
		}
	}
	// A sample of the bounded figures is one whole cycle: the mean
	// verdict time and CPU time of its samples. Every input then weighs
	// in by its cost, where a median over single samples would sit in
	// the middle input class and never see the slowest one.
	type cycleSum struct {
		wall, cpu float64
		n         int
		traced    bool
	}
	cycles := map[int]*cycleSum{}
	var walls, rss []float64
	lines := 0.0
	for _, s := range b.samples {
		c := cycles[s.Cycle]
		if c == nil {
			c = &cycleSum{traced: s.Traced}
			cycles[s.Cycle] = c
		}
		c.wall += s.WallMS
		c.cpu += s.CPUS
		c.n++
		if s.Traced {
			continue
		}
		walls = append(walls, s.WallMS)
		rss = append(rss, s.RSSMB)
		lines += float64(s.lines)
	}
	var cycleWall, cycleCPU, tracedWall []float64
	for k := 1; k <= b.cycle; k++ {
		c := cycles[k]
		if c == nil || c.n != len(b.inputs) {
			continue // a crash left the cycle incomplete
		}
		n := float64(c.n)
		if c.traced {
			tracedWall = append(tracedWall, c.wall/n)
			continue
		}
		cycleWall = append(cycleWall, c.wall/n)
		cycleCPU = append(cycleCPU, c.cpu/n)
	}
	b.o.e2e["cpu_ms_per_op"] = median(cycleCPU) * 1000
	b.o.e2e["peak_rss_mb"] = maxOf(rss)
	b.o.detail["latency_ms.mean"] = median(cycleWall)
	b.o.detail["cycles"] = len(cycleWall)
	b.o.detail["cycle_mean_verdict_ms"] = cycleWall
	b.o.detail["throughput_klines_s"] = lines / sum(walls)
	b.o.detail["samples"] = len(walls)
	b.o.detail["verdict_ms.p50"] = median(walls)
	if p, v, ok := tailPercentile(walls); ok {
		b.o.detail[fmt.Sprintf("verdict_ms.p%g", p*100)] = v
	}
	perInput := map[string][]float64{}
	for _, s := range b.samples {
		if !s.Traced {
			perInput[s.Input] = append(perInput[s.Input], s.WallMS)
		}
	}
	med := map[string]float64{}
	for k, v := range perInput {
		med[k] = median(v)
	}
	b.o.detail["verdict_ms.p50_by_input"] = med
	b.o.spans = b.samples
	if b.e.trace {
		b.o.layers["proc.cpu_s"] = median(cycleCPU)
		b.o.layers["harness.trace_overhead"] = median(tracedWall)/median(cycleWall) - 1
		b.layerMetrics()
	}
	return nil
}

// layerMetrics aggregates the probe's spans into the per-layer report:
// medians over traced samples of each span's self time (the spans are
// leaves, so self time is the span), allocation deltas per layer, and
// the driver's remainder — verdict time minus the summed layer spans.
func (b *batch) layerMetrics() {
	m := map[string][]float64{}
	add := func(k string, v float64) { m[k] = append(m[k], v) }
	var cLines, cParse float64
	for _, s := range b.samples {
		if s.Probe == nil {
			continue
		}
		dur := map[string]float64{}
		alloc := map[string]float64{}
		mallocs := map[string]float64{}
		spanned := 0.0
		for _, sp := range s.Probe.Spans {
			dur[sp.Name] += sp.DurMS
			alloc[sp.Layer] += float64(sp.AllocBytes) / 1e6
			mallocs[sp.Layer] += float64(sp.Mallocs) / 1e3
			spanned += sp.DurMS
		}
		for layer := range alloc {
			add(layer+".alloc_mb", alloc[layer])
			add(layer+".mallocs_k", mallocs[layer])
		}
		parse := dur["cfront.load"] + dur["cfront.parse"]
		add("cfront.parse_ms", parse)
		cLines += float64(s.lines)
		cParse += parse
		add("constinfer.prepare_ms", dur["constinfer.prepare"])
		add("constinfer.constrain_ms", dur["constinfer.constrain"])
		add("constinfer.classify_ms", dur["constinfer.classify"])
		if r, err := parseReport([]byte(s.Probe.report)); err == nil && r.Summary != nil {
			add("constinfer.vars", float64(r.Summary.Vars))
			add("constinfer.constraints", float64(r.Summary.Constraints))
		}
		add("constraint.solve_ms", dur["constraint.solve"])
		add("constraint.components", float64(s.Probe.Solver.Components))
		add("constraint.sccs_collapsed", float64(s.Probe.Solver.SCCsCollapsed))
		add("constraint.parallel_classes", float64(s.Probe.Solver.ParallelClasses))
		add("constraint.sweep_levels", float64(s.Probe.Solver.SweepLevels))
		add("constraint.cc_regions", float64(s.Probe.Solver.CCRegions))
		add("driver.other_ms", s.WallMS-spanned)
		add("runtime.gc_cpu_frac", s.Probe.GCCPUFrac)
	}
	L := b.o.layers
	for k, xs := range m {
		L[k] = median(xs)
	}
	if cParse > 0 {
		L["cfront.parse_klines_s"] = cLines / cParse
	}
	L["harness.wrong_verdicts"] = float64(b.o.v.wrong)
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, detail: map[string]any{}}
}

// smokeLines sizes the C smoke input the batch set-up ends with.
const smokeLines = 2000

// ready is the last step of a batch set-up, as /healthz is the
// daemon's: the analyzer answers a small smoke input, and the answer is
// checked like every other output. Program start-up and a cold run's
// fixed costs are thus part of setup_s.
func (e *env) ready(o *outcome, dir string, check func(proc) error, args ...string) error {
	p, err := e.runProc(dir, "cqual", args...)
	if err != nil {
		return err
	}
	if p.crashed() {
		return fmt.Errorf("smoke run: exit %d: %s", p.exit, p.stderr)
	}
	if err := check(p); err != nil {
		o.v.bad("smoke run", err)
	} else {
		o.v.ok()
	}
	return nil
}

// cleanExit is the known answer for a benchgen corpus.
func cleanExit(p proc) error {
	if p.exit != 0 {
		return fmt.Errorf("exit %d", p.exit)
	}
	_, err := checkClean(p.stdout)
	return err
}

// cBatch is the c_batch workload.
func cBatch(e *env) (*outcome, error) {
	o := newOutcome()
	path := filepath.Join(e.work, "corpus.c")
	smoke := filepath.Join(e.work, "smoke.c")
	lines, setup, err := medianSetup(batchSetupRounds, func(bool) (int, error) {
		text := cCorpus(cBatchLines, subSeed(e.seed, 0))
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return 0, err
		}
		if err := os.WriteFile(smoke, []byte(cCorpus(smokeLines, subSeed(e.seed, 3))), 0o644); err != nil {
			return 0, err
		}
		return countLines(text), e.ready(o, e.work, cleanExit, "-json", "smoke.c")
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup
	o.detail["corpus_lines"] = lines
	b := &batch{e: e, o: o, first: map[string][]byte{}}
	for _, mode := range []string{"mono", "poly"} {
		args := []string{"-json", "corpus.c"}
		if mode == "poly" {
			args = []string{"-json", "-poly", "corpus.c"}
		}
		b.inputs = append(b.inputs, batchInput{
			name: mode, dir: e.work, args: args, lines: lines,
			probeArgs: args[1:], check: cleanExit,
		})
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	mono, err1 := checkClean(b.first["mono"])
	poly, err2 := checkClean(b.first["poly"])
	if err1 == nil && err2 == nil {
		b.verdict("mono/poly", checkMonoPoly(mono, poly))
		o.detail["table2"] = map[string]int{"declared": mono.Summary.Declared, "mono": mono.Summary.Inferred,
			"poly": poly.Summary.Inferred, "total": mono.Summary.Total}
	}
	return o, nil
}
