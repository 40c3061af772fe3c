package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/driver"
)

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := cCorpus(3000, subSeed(7, 0)), cCorpus(3000, subSeed(7, 0)); a != b {
		t.Fatal("c corpus differs for one seed")
	}
	if cCorpus(3000, subSeed(7, 0)) == cCorpus(3000, subSeed(8, 0)) {
		t.Fatal("c corpus ignores the seed")
	}

	a, b := newMixPlan(5, 10*time.Second), newMixPlan(5, 10*time.Second)
	if len(a.Requests) == 0 || len(a.Requests) != len(b.Requests) {
		t.Fatalf("schedules have %d and %d requests", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		ra, rb := a.Requests[i], b.Requests[i]
		if ra.At != rb.At || ra.Class != rb.Class || ra.Kind != rb.Kind || !bytes.Equal(ra.Body, rb.Body) {
			t.Fatalf("request %d differs for one seed", i)
		}
	}
	for i := range a.Sessions {
		if !bytes.Equal(a.Sessions[i].Body, b.Sessions[i].Body) || !bytes.Equal(a.Prime[i].Body, b.Prime[i].Body) {
			t.Fatalf("set-up request %d differs for one seed", i)
		}
	}
	c := newMixPlan(6, 10*time.Second)
	if len(c.Requests) > 0 && c.Requests[0].At == a.Requests[0].At {
		t.Fatal("schedule ignores the seed")
	}

	kinds := map[string]int{}
	for _, r := range a.Requests {
		kinds[r.Class+"/"+r.Kind]++
	}
	if n := len(a.Requests); kinds["edit/inplace"]+kinds["edit/insert"]+kinds["edit/delete"] != n/mixDeckSize*deckEdits {
		t.Fatalf("a deck must hold exactly %d edits: %v", deckEdits, kinds)
	}
	if kinds["edit/inplace"] == 0 || kinds["edit/insert"] == 0 || kinds["edit/insert"] != kinds["edit/delete"] {
		t.Fatalf("edits must mix in-place saves with equal numbers of line inserts and deletes: %v", kinds)
	}
}

// realReport analyzes a small corpus in process and renders its JSON
// report, the shape cqual -json prints.
func realReport(t *testing.T, poly bool) []byte {
	t.Helper()
	cfg := driver.Config{}
	cfg.Options.Poly = poly
	res, err := driver.Run(cfg, []driver.Source{driver.TextSource("c.c", cCorpus(2000, 11))})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestOracleRejectsCorruptedReport(t *testing.T) {
	mono, poly := realReport(t, false), realReport(t, true)
	m, err := checkClean(mono)
	if err != nil {
		t.Fatalf("a clean report is rejected: %v", err)
	}
	p, err := checkClean(poly)
	if err != nil {
		t.Fatalf("a clean report is rejected: %v", err)
	}
	if err := checkMonoPoly(m, p); err != nil {
		t.Fatalf("Table 2 ordering rejected on a real pair: %v", err)
	}
	if err := checkMonoPoly(p, m); err == nil && p.Summary.Inferred != m.Summary.Inferred {
		t.Fatal("swapped mono/poly pair accepted")
	}

	retimed := bytes.Replace(mono, []byte(`"parse_ms": `), []byte(`"parse_ms": 1`), 1)
	if err := sameReport(mono, retimed); err != nil {
		t.Fatalf("timings must not count as a difference: %v", err)
	}
	corrupt := map[string][]byte{
		"verdict flipped": bytes.Replace(mono, []byte(`"verdict": "either"`), []byte(`"verdict": "never"`), 1),
		"count changed":   bytes.Replace(mono, []byte(`"declared_const": `), []byte(`"declared_const": 9`), 1),
		"truncated":       mono[:len(mono)/2],
	}
	for name, bad := range corrupt {
		if bytes.Equal(bad, mono) {
			t.Fatalf("%s: corruption did not apply", name)
		}
		if err := sameReport(mono, bad); err == nil {
			t.Errorf("%s: corrupted report compares equal", name)
		}
	}
	if _, err := checkClean(bytes.Replace(mono, []byte(`"conflicts": 0`), []byte(`"conflicts": 1`), 1)); err == nil {
		t.Error("a conflict on a benchgen corpus is accepted")
	}
	if _, err := checkClean(bytes.Replace(mono, []byte(`"inferrable_const": `), []byte(`"inferrable_const": 9999`), 1)); err == nil {
		t.Error("inferred > total is accepted")
	}
	if _, err := checkClean(corrupt["truncated"]); err == nil {
		t.Error("a truncated report is accepted")
	}
}

func TestPercentileTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, ok := percentile(seq(99), 0.9); ok {
		t.Error("p90 of 99 samples has only 9.9 beyond it and must be refused")
	}
	if _, ok := percentile(seq(100), 0.9); !ok {
		t.Error("p90 of 100 samples must be reported")
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples must be refused by the percentile helper")
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{{50, 0, false}, {100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true}, {10000, 0.999, true}} {
		p, _, ok := tailPercentile(seq(c.n))
		if ok != c.ok || p != c.p {
			t.Errorf("tailPercentile(%d samples) = p%g, %v; want p%g, %v", c.n, p*100, ok, c.p*100, c.ok)
		}
	}
	if got := median(seq(101)); math.Abs(got-51) > 1e-9 {
		t.Errorf("median of 1..101 = %v, want 51", got)
	}
	if got := median([]float64{7, 7, 7}); math.Abs(got-7) > 1e-9 {
		t.Errorf("median of a constant = %v", got)
	}
	// On a two-cluster sample the estimate stays between the clusters
	// and moves little when one sample is added.
	two := append(append([]float64{}, repeatValue(100, 10)...), repeatValue(130, 10)...)
	a, b := median(two), median(append(two, 100))
	if a <= 100 || a >= 130 || math.Abs(a-b) > 3 {
		t.Errorf("two-cluster median %v, with one more sample %v", a, b)
	}
}

func repeatValue(v float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics this program
// prints in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ name, unit string }, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program prints %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		names := map[string]string{}
		for _, m := range got {
			names[m.name] = m.unit
		}
		for _, m := range want {
			if u, ok := names[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s (%s) declared but printed as %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
