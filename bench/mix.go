package main

// cquald_mix: an open loop of seeded Poisson arrivals into one cquald.
// Each request's latency counts from its scheduled send time, so a
// stall shows in every request queued behind it. All load comes from
// this one process over at most nproc connections: one carries the
// heavy classes (editor saves and Go requests, up to two seconds each),
// the rest carry hits and misses. Sharing one pool, a 2 ms hit would
// wait whenever two heavy requests held both connections, and how often
// that happens from seed to seed would set the median more than the
// daemon does.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxLagMS is the generator lateness beyond which the run is invalid:
// the client, not the server, would be setting the latencies.
const maxLagMS = 50.0

// daemon is one running cquald.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	log  string
	done chan struct{}
}

var listenRE = regexp.MustCompile(`listening on (http://[0-9.:]+)`)

// startDaemon starts cquald in dir and waits until /healthz answers.
func (e *env) startDaemon(dir string, client *http.Client) (*daemon, error) {
	logPath := filepath.Join(e.work, "cquald.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(e.bin, "cquald"), "-addr", "127.0.0.1:0")
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	// gctrace lines carry the daemon's cumulative GC CPU share, the one
	// runtime figure observable from outside the process.
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() { cmd.Wait(); close(d.done) }()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if d.url == "" {
			data, _ := os.ReadFile(logPath)
			if m := listenRE.FindSubmatch(data); m != nil {
				d.url = string(m[1])
			}
		}
		if d.url != "" {
			if resp, err := client.Get(d.url + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("cquald exited during start-up: %s", tailFile(logPath))
		case <-time.After(20 * time.Millisecond):
		}
	}
	d.stop()
	return nil, errors.New("cquald did not answer /healthz within 20s")
}

// stop shuts the daemon down gracefully and waits for it to exit,
// returning its CPU seconds and peak RSS.
func (d *daemon) stop() (cpuS, rssMB float64) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
	}
	return 0, 0
}

func tailFile(path string) string {
	data, _ := os.ReadFile(path)
	return tail(data)
}

// reply is one HTTP exchange.
type reply struct {
	status int
	cache  string
	body   []byte
	err    error
	// gotConn is when the client obtained a connection: the wait before
	// it is queueing in the client's nproc-connection pool.
	gotConn time.Time
}

func post(client *http.Client, url string, body []byte) reply {
	var rep reply
	var gotConn atomic.Int64
	req, err := http.NewRequest(http.MethodPost, url+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn.Store(time.Now().UnixNano()) },
	}))
	resp, err := client.Do(req)
	if n := gotConn.Load(); n != 0 {
		rep.gotConn = time.Unix(0, n)
	}
	if err != nil {
		rep.err = err
		return rep
	}
	defer resp.Body.Close()
	rep.body, rep.err = io.ReadAll(resp.Body)
	rep.status, rep.cache = resp.StatusCode, resp.Header.Get("X-Cache")
	return rep
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// mixSpan is one HTTP call of the timed window, tagged by class.
type mixSpan struct {
	Class   string  `json:"class"`
	Kind    string  `json:"kind,omitempty"`
	Phase   string  `json:"phase"`
	DueMS   float64 `json:"due_ms"`
	LagMS   float64 `json:"lag_ms"`
	DoneMS  float64 `json:"done_ms"`
	Latency float64 `json:"latency_ms"`
	// WireMS is the exchange's time on a connection, from obtaining it
	// to the reply's last byte.
	WireMS float64 `json:"wire_ms"`
	Status int     `json:"status"`
	Cache  string  `json:"cache"`
	Lines  int     `json:"lines"`
	// Probe is the traced run's probe of a Go request's sources.
	Probe *probeOut `json:"probe,omitempty"`
	req   *mixRequest
	rep   reply
}

// counters is the slice of /metrics and /v1/introspect the traced
// run takes deltas of.
type counters struct {
	ResultCache  struct{ Hits, Misses float64 } `json:"result_cache"`
	SummaryCache struct{ Hits, Misses float64 } `json:"summary_cache"`
	Sessions     struct{ Evictions float64 }    `json:"sessions"`
	Delta        struct{ Hits, Fallbacks float64 }
	Retention    struct{ Admitted float64 }
	Journal      struct {
		NextSeq float64 `json:"next_seq"`
	}
}

func serverStats(client *http.Client, url string) (counters, error) {
	var s counters
	if err := getJSON(client, url+"/metrics", &s); err != nil {
		return s, err
	}
	var in struct {
		Retention *struct{ Admitted float64 } `json:"retention"`
		Journal   *struct {
			NextSeq float64 `json:"next_seq"`
		} `json:"journal"`
	}
	in.Retention, in.Journal = &s.Retention, &s.Journal
	err := getJSON(client, url+"/v1/introspect", &in)
	return s, err
}

// poller watches the daemon through the traced half of the window: it
// snapshots the counters when the half starts, then polls the daemon's
// own in-flight gauge until stopped.
type poller struct {
	mid         counters
	inFlightMax atomic.Int64
	done        chan struct{}
	wg          sync.WaitGroup
}

func (e *env) startPoller(client *http.Client, url string, half time.Duration) (*poller, error) {
	before, err := serverStats(client, url)
	if err != nil {
		return nil, err
	}
	p := &poller{mid: before, done: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		select {
		case <-time.After(half):
		case <-p.done:
			return
		}
		if mid, err := serverStats(client, url); err == nil {
			p.mid = mid
		}
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-tick.C:
				var in struct {
					Workers struct {
						InFlight int64 `json:"in_flight"`
					} `json:"workers"`
				}
				if getJSON(client, url+"/v1/introspect", &in) == nil {
					storeMax(&p.inFlightMax, in.Workers.InFlight)
				}
			}
		}
	}()
	return p, nil
}

// stop ends the polling, waits for it, and returns the counters taken
// at the start of the traced half.
func (p *poller) stop() counters {
	close(p.done)
	p.wg.Wait()
	return p.mid
}

func storeMax(m *atomic.Int64, v int64) {
	for {
		old := m.Load()
		if v <= old || m.CompareAndSwap(old, v) {
			return
		}
	}
}

// cqualdMix is the cquald_mix workload.
func cqualdMix(e *env) (*outcome, error) {
	o := newOutcome()
	nproc := runtime.NumCPU()
	newClient := func(conns int) *http.Client {
		return &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
			Timeout:   60 * time.Second,
		}
	}
	client := newClient(max(nproc-1, 1))
	defer client.CloseIdleConnections()
	heavy := client
	if nproc > 1 {
		heavy = newClient(1)
		defer heavy.CloseIdleConnections()
	}
	srv := filepath.Join(e.work, "srv")
	type ready struct {
		plan  *mixPlan
		d     *daemon
		prime [][]byte
	}
	var live *daemon
	defer func() {
		if live != nil {
			live.stop()
		}
	}()
	// Set-up: generate the traffic, start the daemon, wait for /healthz,
	// open every editor session and answer the hit pool.
	r, setup, err := medianSetup(mixSetupRounds, func(last bool) (ready, error) {
		var rd ready
		os.RemoveAll(srv)
		if err := writeModule(srv); err != nil {
			return rd, err
		}
		rd.plan = newMixPlan(e.seed, e.window)
		d, err := e.startDaemon(srv, client)
		if err != nil {
			return rd, err
		}
		live = d
		for _, req := range append(append([]mixRequest{}, rd.plan.Sessions...), rd.plan.Prime...) {
			rep := post(client, d.url, req.Body)
			if rep.err != nil || rep.status != http.StatusOK {
				return rd, fmt.Errorf("priming %s request: status %d, %v: %s", req.Class, rep.status, rep.err, tail(rep.body))
			}
			if req.Class == "miss" {
				rd.prime = append(rd.prime, rep.body)
			}
		}
		if !last {
			d.stop()
			live = nil
		}
		rd.d = d
		return rd, nil
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup
	plan, d := r.plan, r.d

	var pl *poller
	if e.trace {
		if pl, err = e.startPoller(client, d.url, e.window/2); err != nil {
			return nil, err
		}
	}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	spans := make([]mixSpan, len(plan.Requests))
	var wg sync.WaitGroup
	var inFlight, clientMax atomic.Int64
	half := e.window / 2
	start := time.Now()
	for i := range plan.Requests {
		req := &plan.Requests[i]
		due := start.Add(req.At)
		time.Sleep(time.Until(due))
		sp := &spans[i]
		sp.req, sp.Class, sp.Kind, sp.Lines = req, req.Class, req.Kind, req.Lines
		sp.Phase = "untraced"
		if e.trace && req.At >= half {
			sp.Phase = "traced"
		}
		sp.DueMS = ms(req.At)
		sp.LagMS = ms(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			storeMax(&clientMax, inFlight.Add(1))
			c := client
			if req.Class == "edit" || req.Class == "go" {
				c = heavy
			}
			sp.rep = post(c, d.url, req.Body)
			inFlight.Add(-1)
			done := time.Since(start)
			sp.DoneMS = ms(done)
			sp.Latency = ms(done - req.At)
			if !sp.rep.gotConn.IsZero() {
				sp.WireMS = ms(start.Add(done).Sub(sp.rep.gotConn))
			}
			sp.Status, sp.Cache = sp.rep.status, sp.rep.cache
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	windowCPU := cpu1 - cpu0
	var mid, after counters
	if pl != nil {
		mid = pl.stop()
		if after, err = serverStats(client, d.url); err != nil {
			return nil, err
		}
	}
	cpuS, rssMB := d.stop()
	live = nil
	gcFrac := lastGCFrac(d.log)

	// Known answers: every hit is byte-equal to the first reply; every
	// other reply is byte-equal to a cold cqual -json run of the same
	// sources, and C replies are conflict-free with Declared ≤ Inferred
	// ≤ Total.
	var cold []*mixSpan
	var lags, lat []float64
	byClass := map[string][]float64{}
	lines := 0.0
	backlog := 0
	// drain is how long the replies outlast the last scheduled send: a
	// backlog that grew over the window takes long to drain.
	drain := 0.0
	shed, errs := 0, 0
	window := ms(e.window)
	for i := range spans {
		sp := &spans[i]
		o.attempted++
		lags = append(lags, sp.LagMS)
		drain = max(drain, sp.DoneMS-spans[len(spans)-1].DueMS)
		if sp.DueMS < window && sp.DoneMS > window {
			backlog++
		}
		if sp.rep.err != nil || sp.Status != http.StatusOK {
			o.failed++
			if sp.Status == http.StatusTooManyRequests || sp.Status == http.StatusGatewayTimeout {
				shed++
			} else {
				errs++
			}
			continue
		}
		if sp.Phase == "untraced" {
			lat = append(lat, sp.Latency)
			byClass[sp.Class] = append(byClass[sp.Class], sp.Latency)
			lines += float64(sp.Lines)
		}
		want := map[string]string{"hit": "hit", "miss": "miss", "go": "miss", "edit": "session"}[sp.Class]
		if sp.Cache != want {
			o.v.bad(sp.Class, fmt.Errorf("X-Cache %q, want %q", sp.Cache, want))
			continue
		}
		if sp.Class == "hit" {
			if bytes.Equal(sp.rep.body, r.prime[sp.req.Target]) {
				o.v.ok()
			} else {
				o.v.bad("hit", errors.New("reply differs from the first reply"))
			}
			continue
		}
		cold = append(cold, sp)
	}
	if err := e.coldCheck(cold, o); err != nil {
		return nil, err
	}

	lag90 := maxOf(lags)
	if v, ok := percentile(lags, 0.9); ok {
		lag90 = v
	}
	if lag90 > maxLagMS {
		return nil, fmt.Errorf("invalid run: generator lateness p90 %.1f ms exceeds %.0f ms", lag90, maxLagMS)
	}
	// The bounded CPU figure weighs each class by its cost: edits and Go
	// requests, a sixth of the traffic, are most of the daemon's CPU time
	// per request. Latency stays in the detail record: waiting on the
	// host's CPUs multiplies their speed drift into it, so from seed to
	// seed it spreads about twice as wide as the CPU time, past its
	// bound (see README.md).
	o.e2e["cpu_ms_per_op"] = windowCPU * 1000 / float64(len(spans))
	o.e2e["peak_rss_mb"] = rssMB
	o.detail["offered_rps"] = mixRate
	o.detail["requests"] = len(spans)
	o.detail["latency_limit_ms"] = mixLimitMS
	o.detail["latency_ms.p50"] = median(lat)
	o.detail["latency_ms.mean"] = sum(lat) / float64(len(lat))
	o.detail["throughput_klines_s"] = lines / sum(lat)
	if p, v, ok := tailPercentile(lat); ok {
		o.detail[fmt.Sprintf("latency_ms.p%g", p*100)] = v
		o.detail["meets_limit"] = v <= mixLimitMS && drain <= mixLimitMS
	}
	for c, xs := range byClass {
		o.detail[c+"_ms.p50"] = median(xs)
		o.detail[c+"_n"] = len(xs)
	}
	o.detail["backlog_end"] = backlog
	o.detail["drain_ms"] = drain
	o.detail["gen_lag_ms.p90"] = lag90
	o.detail["daemon_cpu_s"] = cpuS
	// How loaded the offered rate leaves the daemon: its CPU share of
	// nproc CPUs over the window, and the share of the window the one
	// heavy-class connection was busy.
	heavyBusy := 0.0
	for _, sp := range spans {
		if sp.Class == "edit" || sp.Class == "go" {
			heavyBusy += sp.WireMS
		}
	}
	o.detail["daemon_cpu_util"] = windowCPU / (elapsed.Seconds() * float64(nproc))
	o.detail["heavy_conn_busy"] = heavyBusy / ms(elapsed)
	o.spans = spans

	if e.trace {
		L := o.layers
		// The halves carry different requests, so the overhead compares
		// each class with itself: the median of the per-class ratios.
		tracedBy := map[string][]float64{}
		for _, sp := range spans {
			if sp.Phase == "traced" && sp.rep.err == nil && sp.Status == http.StatusOK {
				tracedBy[sp.Class] = append(tracedBy[sp.Class], sp.Latency)
			}
		}
		var ratios []float64
		for c, xs := range tracedBy {
			if len(xs) >= 3 && len(byClass[c]) >= 3 {
				ratios = append(ratios, median(xs)/median(byClass[c]))
			}
		}
		if len(ratios) > 0 {
			L["harness.trace_overhead"] = median(ratios) - 1
		}
		L["harness.gen_lag_ms.p90"] = lag90
		L["harness.backlog_end"] = float64(backlog)
		L["harness.wrong_verdicts"] = float64(o.v.wrong)
		L["server.shed"] = float64(shed)
		L["server.errors"] = float64(errs)
		L["server.in_flight_max"] = float64(pl.inFlightMax.Load())
		L["proc.cpu_s"] = cpuS / float64(max(len(spans), 1))
		L["runtime.gc_cpu_frac"] = gcFrac
		L["cache.result_hit_ratio"] = ratio(after.ResultCache.Hits-mid.ResultCache.Hits, after.ResultCache.Misses-mid.ResultCache.Misses)
		L["cache.summary_hit_ratio"] = ratio(after.SummaryCache.Hits-mid.SummaryCache.Hits, after.SummaryCache.Misses-mid.SummaryCache.Misses)
		L["cache.session_evictions"] = after.Sessions.Evictions - mid.Sessions.Evictions
		L["constraint.delta_hit_ratio"] = ratio(after.Delta.Hits-mid.Delta.Hits, after.Delta.Fallbacks-mid.Delta.Fallbacks)
		L["obs.retained_traces"] = after.Retention.Admitted - mid.Retention.Admitted
		L["obs.journal_events"] = after.Journal.NextSeq - mid.Journal.NextSeq
		o.detail["client_in_flight_max"] = clientMax.Load()
		replyLayers(spans, L)
	}
	return o, nil
}

// replyLayers derives per-layer figures from the timings and solver
// blocks of the run's non-hit replies. These are the daemon's own
// stage timings, unaffected by the client's tracing, so both halves
// count.
func replyLayers(spans []mixSpan, L map[string]float64) {
	m := map[string][]float64{}
	add := func(k string, v float64) { m[k] = append(m[k], v) }
	cLines, cParse, notes := 0.0, 0.0, 0.0
	for _, sp := range spans {
		if sp.Class == "hit" || sp.rep.err != nil || sp.Status != http.StatusOK {
			continue
		}
		r, err := parseReport(sp.rep.body)
		if err != nil {
			continue
		}
		t := r.Timings
		stages := t["load_ms"] + t["parse_ms"] + t["build_ms"] + t["constrain_ms"] + t["solve_ms"] + t["classify_ms"] + t["report_ms"]
		add("server.overhead_ms.p50", sp.WireMS-stages)
		add("driver.other_ms", t["report_ms"])
		if sp.Class == "go" {
			if sp.Probe != nil {
				alloc, mallocs := 0.0, 0.0
				for _, s := range sp.Probe.Spans {
					if s.Layer == "gofront" {
						alloc += float64(s.AllocBytes) / 1e6
						mallocs += float64(s.Mallocs) / 1e3
					}
				}
				add("gofront.alloc_mb", alloc)
				add("gofront.mallocs_k", mallocs)
			}
			add("gofront.load_ms", t["load_ms"])
			add("gofront.parse_ms", t["parse_ms"])
			add("gofront.constrain_ms", t["build_ms"]+t["constrain_ms"]+t["classify_ms"])
			notes += float64(r.typeErrorNotes())
			continue
		}
		cLines += float64(sp.Lines)
		cParse += t["load_ms"] + t["parse_ms"]
		add("cfront.parse_ms", t["load_ms"]+t["parse_ms"])
		add("constinfer.prepare_ms", t["build_ms"])
		add("constinfer.constrain_ms", t["constrain_ms"])
		add("constinfer.classify_ms", t["classify_ms"])
		if r.Summary != nil {
			add("constinfer.vars", float64(r.Summary.Vars))
			add("constinfer.constraints", float64(r.Summary.Constraints))
		}
		if sp.Class == "miss" && r.Solver != nil {
			add("constraint.solve_ms", t["solve_ms"])
			add("constraint.components", float64(r.Solver.Components))
			add("constraint.sccs_collapsed", float64(r.Solver.SCCsCollapsed))
			add("constraint.cc_regions", float64(r.Solver.Parallel.CCRegions))
			add("constraint.parallel_classes", float64(r.Solver.Parallel.Classes))
			add("constraint.sweep_levels", float64(r.Solver.Parallel.Levels))
		}
		if sp.Class == "edit" && r.Solver != nil && r.Solver.Delta != nil {
			add("constraint.delta_solve_ms", t["solve_ms"])
			if sp.Kind == "inplace" {
				add("constraint.delta_solve_inplace_ms", t["solve_ms"])
			} else {
				add("constraint.delta_solve_shift_ms", t["solve_ms"])
			}
			add("constraint.frags_added", float64(r.Solver.Delta.FragsAdded))
			add("constraint.resolved_sccs", float64(r.Solver.Delta.ResolvedSCCs))
		}
	}
	for k, xs := range m {
		L[k] = median(xs)
	}
	if cParse > 0 {
		L["cfront.parse_klines_s"] = cLines / cParse
	}
	L["gofront.type_error_notes"] = notes
}

// procCPU reads a process's CPU seconds, user and system over all its
// threads, from /proc/<pid>/stat (utime and stime, in USER_HZ ticks).
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unreadable /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unreadable /proc/%d/stat", pid)
	}
	const userHZ = 100
	return (ut + st) / userHZ, nil
}

var gcRE = regexp.MustCompile(`gc \d+ @[0-9.]+s (\d+)%:`)

// lastGCFrac reads the daemon's cumulative GC CPU share from its last
// gctrace line.
func lastGCFrac(logPath string) float64 {
	f, err := os.Open(logPath)
	if err != nil {
		return 0
	}
	defer f.Close()
	frac := 0.0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := gcRE.FindStringSubmatch(sc.Text()); m != nil {
			if v, err := strconv.Atoi(m[1]); err == nil {
				frac = float64(v) / 100
			}
		}
	}
	return frac
}

// writeModule makes dir a Go module root, so Go requests resolve to the
// same package paths in the daemon and in the cold reference runs.
func writeModule(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module benchsvc\n\ngo 1.23\n"), 0o644)
}

// coldCheck compares every non-hit reply with a cold cqual -json run of
// the same sources, nproc runs at a time, each in its own directory.
func (e *env) coldCheck(spans []*mixSpan, o *outcome) error {
	wrong := make([]error, len(spans))
	broken := make([]error, len(spans))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		dir := filepath.Join(e.work, fmt.Sprintf("cold%d", w))
		if err := writeModule(dir); err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				wrong[i], broken[i] = e.coldOne(dir, spans[i])
			}
		}()
	}
	for i := range spans {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, sp := range spans {
		switch {
		case broken[i] != nil:
			return broken[i]
		case wrong[i] != nil:
			o.v.bad(sp.Class, wrong[i])
		default:
			o.v.ok()
		}
	}
	return nil
}

// coldOne checks one reply against its cold run. The first result is
// a wrong verdict; the second a harness failure that voids the run.
func (e *env) coldOne(dir string, sp *mixSpan) (wrong, broken error) {
	args := []string{"-json"}
	if sp.req.Lang != "" {
		args = append(args, "-lang", sp.req.Lang)
	}
	for _, s := range sp.req.Sources {
		path := filepath.Join(dir, s.Path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, []byte(s.Text), 0o644); err != nil {
			return nil, err
		}
		args = append(args, s.Path)
	}
	p, err := e.runProc(dir, "cqual", args...)
	if err != nil {
		return nil, err
	}
	if p.exit != 0 {
		return fmt.Errorf("cold run exit %d: %s", p.exit, p.stderr), nil
	}
	if err := sameReport(p.stdout, sp.rep.body); err != nil {
		return fmt.Errorf("daemon reply vs cold run: %w", err), nil
	}
	if sp.req.Lang == "go" {
		r, err := parseReport(sp.rep.body)
		if err != nil {
			return err, nil
		}
		if n := r.typeErrorNotes(); n > 0 {
			return fmt.Errorf("%d go-type-error notes", n), nil
		}
		if e.trace && sp.Phase == "traced" {
			return e.probeGo(dir, args[1:], sp)
		}
		return nil, nil
	}
	_, err = checkClean(sp.rep.body)
	return err, nil
}

// probeGo runs a traced Go request's sources through the probe, the one
// place the Go front end's allocations are observed from outside, and
// checks the probe's report against the daemon's reply.
func (e *env) probeGo(dir string, args []string, sp *mixSpan) (wrong, broken error) {
	p, err := e.runProc(dir, "probe", args...)
	if err != nil {
		return nil, err
	}
	if p.crashed() {
		return fmt.Errorf("probe exit %d: %s", p.exit, p.stderr), nil
	}
	var out struct {
		probeOut
		Report string `json:"report"`
	}
	if err := json.Unmarshal(p.stdout, &out); err != nil {
		return nil, fmt.Errorf("probe output: %w", err)
	}
	sp.Probe = &out.probeOut
	if err := sameReport([]byte(out.Report), sp.rep.body); err != nil {
		return fmt.Errorf("probe vs daemon reply: %w", err), nil
	}
	return nil, nil
}
