// Command bench is the repository's benchmark. It runs one workload per
// invocation and prints, as the last line of its standard output, one
// JSON object: whether every output agreed with its known answer, how
// many operations were attempted and failed, and the metrics — the
// end-to-end ones from an untraced run (-trace 0) or the per-layer ones
// from a traced run (-trace 1). The line before it is a JSON detail
// record with every figure the run took; the traced run also writes its
// spans and per-layer report under <build>/results.
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	c_batch     closed loop, one client: a fresh cqual -json process per
//	            sample on one seeded 40k-line benchgen corpus, alternating
//	            mono and -poly
//	cquald_mix  open loop of seeded Poisson arrivals into one cquald:
//	            result-cache hits, fresh C programs, editor saves into
//	            retained delta sessions, and small Go services
//
// bench/run.sh builds the binaries and runs this program from the root
// of a checkout:
//
//	bash bench/run.sh --workload c_batch --seed 1 --seconds 45 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The end-to-end metrics every workload reports (the contract line
// carries exactly these with -trace 0).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// The per-layer metrics every traced run reports. A layer a workload
// does not exercise, or cannot be observed from outside on it, reads 0.
var perLayer = []struct{ name, unit string }{
	{"cfront.parse_ms", "ms"},
	{"cfront.parse_klines_s", "klines/s"},
	{"cfront.alloc_mb", "MB"},
	{"cfront.mallocs_k", "k"},
	{"gofront.load_ms", "ms"},
	{"gofront.parse_ms", "ms"},
	{"gofront.constrain_ms", "ms"},
	{"gofront.alloc_mb", "MB"},
	{"gofront.mallocs_k", "k"},
	{"gofront.type_error_notes", "count"},
	{"constinfer.prepare_ms", "ms"},
	{"constinfer.constrain_ms", "ms"},
	{"constinfer.classify_ms", "ms"},
	{"constinfer.alloc_mb", "MB"},
	{"constinfer.vars", "count"},
	{"constinfer.constraints", "count"},
	{"constraint.solve_ms", "ms"},
	{"constraint.components", "count"},
	{"constraint.sccs_collapsed", "count"},
	{"constraint.cc_regions", "count"},
	{"constraint.parallel_classes", "count"},
	{"constraint.sweep_levels", "count"},
	{"constraint.delta_solve_ms", "ms"},
	{"constraint.delta_solve_shift_ms", "ms"},
	{"constraint.delta_solve_inplace_ms", "ms"},
	{"constraint.delta_hit_ratio", "ratio"},
	{"constraint.frags_added", "count"},
	{"constraint.resolved_sccs", "count"},
	{"driver.other_ms", "ms"},
	{"cache.result_hit_ratio", "ratio"},
	{"cache.summary_hit_ratio", "ratio"},
	{"cache.session_evictions", "count"},
	{"server.overhead_ms.p50", "ms"},
	{"server.in_flight_max", "count"},
	{"server.shed", "count"},
	{"server.errors", "count"},
	{"obs.retained_traces", "count"},
	{"obs.journal_events", "count"},
	{"proc.cpu_s", "s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"harness.gen_lag_ms.p90", "ms"},
	{"harness.backlog_end", "count"},
	{"harness.trace_overhead", "ratio"},
	{"harness.wrong_verdicts", "count"},
}

// env is one invocation's configuration.
type env struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	root     string // checkout root
	bin      string // built binaries
	work     string // scratch directory of this run
	results  string
	goroot   string
}

// outcome is what a workload run returns.
type outcome struct {
	attempted, failed int
	v                 verdicts
	e2e               map[string]float64
	layers            map[string]float64
	detail            map[string]any
	spans             any
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var e env
	var seconds int
	var trace int
	flag.StringVar(&e.workload, "workload", "", "c_batch or cquald_mix")
	flag.Int64Var(&e.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 45, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	run := map[string]func(*env) (*outcome, error){
		"c_batch": cBatch, "cquald_mix": cqualdMix,
	}[e.workload]
	if run == nil || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench --workload c_batch|cquald_mix --seed N --seconds S --trace 0|1")
		return 2
	}
	e.window = time.Duration(seconds) * time.Second
	e.trace = trace == 1
	if err := e.init(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(e.work)
	out, err := run(&e)
	if err == nil {
		err = e.emit(out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", e.workload, err)
		return 1
	}
	return 0
}

func (e *env) init() error {
	var err error
	if e.root, err = os.Getwd(); err != nil {
		return err
	}
	e.bin = os.Getenv("BENCH_BIN")
	e.goroot = os.Getenv("GOROOT")
	if e.bin == "" || e.goroot == "" {
		return errors.New("BENCH_BIN and GOROOT must be set; run through bench/run.sh")
	}
	for _, b := range []string{"cqual", "cquald", "probe"} {
		if _, err := os.Stat(filepath.Join(e.bin, b)); err != nil {
			return fmt.Errorf("missing binary: %w", err)
		}
	}
	build := filepath.Dir(e.bin)
	e.results = filepath.Join(build, "results")
	if err := os.MkdirAll(e.results, 0o755); err != nil {
		return err
	}
	e.work, err = os.MkdirTemp(build, "work-")
	return err
}

// emit prints the detail record and then the contract line.
func (e *env) emit(out *outcome) error {
	metrics := map[string]metric{}
	if e.trace {
		for _, m := range perLayer {
			metrics[m.name] = metric{out.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v := out.e2e[m.name]
			if !(v > 0) {
				return fmt.Errorf("end-to-end metric %s is %v", m.name, v)
			}
			metrics[m.name] = metric{v, m.unit}
		}
	}
	out.detail["workload"] = e.workload
	out.detail["seed"] = e.seed
	out.detail["window_s"] = e.window.Seconds()
	out.detail["trace"] = e.trace
	out.detail["nproc"] = runtime.NumCPU()
	out.detail["goroot"] = e.goroot
	out.detail["go_version"] = goVersion(e.goroot)
	out.detail["verdicts_checked"] = out.v.checked
	out.detail["wrong_verdicts"] = out.v.wrong
	out.detail["problems"] = out.v.firstProblems
	out.detail["failed_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
	if e.trace {
		out.detail["per_layer"] = out.layers
	} else {
		out.detail["end_to_end"] = out.e2e
	}
	detail, err := json.Marshal(map[string]any{"detail": out.detail})
	if err != nil {
		return err
	}
	phase := "untraced"
	if e.trace {
		phase = "traced"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", e.workload, e.seed, phase)
	full, err := json.MarshalIndent(map[string]any{"detail": out.detail, "spans": out.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.results, name), full, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.v.correct(), max(out.attempted, 1), out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", detail, line)
	return nil
}

func goVersion(goroot string) string {
	data, err := os.ReadFile(filepath.Join(goroot, "VERSION"))
	if err != nil {
		return runtime.Version()
	}
	return string(bytes.SplitN(data, []byte("\n"), 2)[0])
}

// proc is one finished analyzer process.
type proc struct {
	wallMS float64
	cpuS   float64
	rssMB  float64
	exit   int
	stdout []byte
	stderr string
}

// runProc runs one binary from the build directory in dir (relative to
// the checkout root unless absolute) and waits for it. Wall time runs
// from exec to exit. The error reports only a process that could not
// run; a crash comes back as exit -1 with its stderr tail.
func (e *env) runProc(dir, name string, args ...string) (proc, error) {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	if filepath.IsAbs(dir) {
		cmd.Dir = dir
	} else {
		cmd.Dir = filepath.Join(e.root, dir)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	p := proc{wallMS: ms(wall), stdout: stdout.Bytes(), stderr: tail(stderr.Bytes())}
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr):
		p.exit = exitErr.ExitCode() // -1 when killed by a signal
	default:
		return p, fmt.Errorf("%s %v: %w", name, args, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.cpuS = tv(ru.Utime) + tv(ru.Stime)
		p.rssMB = float64(ru.Maxrss) / 1024
	}
	return p, nil
}

// crashed reports a process that ended other than by printing a verdict:
// cqual and probe exit 0 (clean) or 1 (conflicts), never anything else
// on a well-formed input.
func (p proc) crashed() bool { return p.exit != 0 && p.exit != 1 }

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func tail(b []byte) string {
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return string(bytes.TrimSpace(b))
}

// medianSetup runs a workload's set-up several times and returns the
// last result with the median of the set-up times.
func medianSetup[T any](n int, setup func(last bool) (T, error)) (T, float64, error) {
	var times []float64
	var res T
	for i := 0; i < n; i++ {
		start := time.Now()
		r, err := setup(i == n-1)
		if err != nil {
			return res, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		res = r
	}
	sort.Float64s(times)
	return res, times[len(times)/2], nil
}

// How many times a workload sets up per run. A batch set-up takes
// 0.1–0.4 s, so it repeats more to steady its median; the daemon's
// takes over a second.
const (
	batchSetupRounds = 7
	mixSetupRounds   = 3
)
