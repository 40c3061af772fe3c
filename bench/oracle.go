package main

// The known-answer oracle. Every output the benchmark receives is
// checked; a disagreement is a wrong verdict and is never skipped.

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// report is the part of the cqual -json schema the oracle reads.
type report struct {
	Files   []string `json:"files"`
	Summary *struct {
		Total       int `json:"total_positions"`
		Declared    int `json:"declared_const"`
		Inferred    int `json:"inferrable_const"`
		Vars        int `json:"vars"`
		Constraints int `json:"constraints"`
		Conflicts   int `json:"conflicts"`
	} `json:"summary"`
	Diagnostics []diagnostic       `json:"diagnostics"`
	Timings     map[string]float64 `json:"timings"`
	Solver      *struct {
		Components    int `json:"components"`
		SCCsCollapsed int `json:"sccs_collapsed"`
		Parallel      struct {
			Classes   int `json:"classes"`
			Levels    int `json:"levels"`
			CCRegions int `json:"cc_regions"`
		} `json:"parallel"`
		Delta *struct {
			Applied      bool `json:"applied"`
			FragsAdded   int  `json:"frags_added"`
			ResolvedSCCs int  `json:"resolved_sccs"`
		} `json:"delta"`
	} `json:"solver"`
}

type diagnostic struct {
	Pos      string `json:"pos"`
	Severity string `json:"severity"`
	Code     string `json:"code"`
	Message  string `json:"message"`
}

func parseReport(data []byte) (*report, error) {
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report is not JSON: %w", err)
	}
	return &r, nil
}

// typeErrorNotes counts the Go front end's go-type-error notes.
func (r *report) typeErrorNotes() int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Code == "go-type-error" {
			n++
		}
	}
	return n
}

// checkClean is the known answer for a benchgen corpus: it analyzes
// with no conflict and no error, and Declared ≤ Inferred ≤ Total.
func checkClean(data []byte) (*report, error) {
	r, err := parseReport(data)
	if err != nil {
		return nil, err
	}
	if r.Summary == nil {
		return nil, fmt.Errorf("report has no summary")
	}
	for _, d := range r.Diagnostics {
		if d.Severity == "error" {
			return nil, fmt.Errorf("unexpected error diagnostic %q", d.Code)
		}
	}
	s := r.Summary
	if s.Conflicts != 0 {
		return nil, fmt.Errorf("%d conflicts on a conflict-free corpus", s.Conflicts)
	}
	if !(s.Declared <= s.Inferred && s.Inferred <= s.Total) {
		return nil, fmt.Errorf("declared %d ≤ inferred %d ≤ total %d does not hold", s.Declared, s.Inferred, s.Total)
	}
	return r, nil
}

// checkMonoPoly is Tables 1–2's ordering across the two modes of one
// corpus: Declared ≤ Mono ≤ Poly ≤ Total.
func checkMonoPoly(mono, poly *report) error {
	m, p := mono.Summary, poly.Summary
	if m.Declared != p.Declared || m.Total != p.Total {
		return fmt.Errorf("mono and poly disagree on the corpus (declared %d/%d, total %d/%d)", m.Declared, p.Declared, m.Total, p.Total)
	}
	if !(m.Declared <= m.Inferred && m.Inferred <= p.Inferred && p.Inferred <= p.Total) {
		return fmt.Errorf("declared %d ≤ mono %d ≤ poly %d ≤ total %d does not hold", m.Declared, m.Inferred, p.Inferred, p.Total)
	}
	return nil
}

// canonical strips what may legitimately differ between two runs of one
// analysis — wall-clock timings, a daemon's trace id, a retained
// session's delta block, and the solver's parallel block, whose
// execution counters record how a solve ran (a delta session runs one
// worker and no connected-component regions), never what it computed —
// and re-encodes the rest with sorted keys.
func canonical(data []byte) ([]byte, error) {
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("report is not JSON: %w", err)
	}
	delete(m, "timings")
	delete(m, "trace_id")
	if s, ok := m["solver"].(map[string]any); ok {
		delete(s, "delta")
		delete(s, "parallel")
	}
	return json.Marshal(m)
}

// sameReport reports whether two reports agree once canonicalized.
func sameReport(a, b []byte) error {
	ca, err := canonical(a)
	if err != nil {
		return err
	}
	cb, err := canonical(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ca, cb) {
		return fmt.Errorf("reports differ (%d vs %d canonical bytes)", len(ca), len(cb))
	}
	return nil
}

// verdicts tallies the oracle's outcome over a run.
type verdicts struct {
	checked       int
	wrong         int
	firstProblems []string
}

func (v *verdicts) ok() { v.checked++ }

func (v *verdicts) bad(what string, err error) {
	v.checked++
	v.wrong++
	v.note(what + ": " + err.Error())
}

// note keeps the first few problems for the detail record.
func (v *verdicts) note(problem string) {
	if len(v.firstProblems) < 8 {
		v.firstProblems = append(v.firstProblems, problem)
	}
}

// correct is false when any output disagreed with its known answer.
func (v *verdicts) correct() bool { return v.wrong == 0 }
