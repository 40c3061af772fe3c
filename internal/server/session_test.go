package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

const sessV1 = `
int strlen(const char *s);
void sink(char *p) { *p = 0; }
int probe(const char *s) { return strlen(s); }
void use(char *buf) { sink(buf); probe(buf); }
`

// sessInserted is sessV1 with one function inserted near the top, so
// every later function's variables are numbered differently.
const sessInserted = `
int strlen(const char *s);
int first(char *s) { return *s; }
void sink(char *p) { *p = 0; }
int probe(const char *s) { return strlen(s); }
void use(char *buf) { sink(buf); probe(buf); }
`

func sessionBody(session, src string) string {
	b, _ := json.Marshal(AnalyzeRequest{
		Sources: []SourceJSON{{Path: "prog.c", Text: src}},
		Session: session,
	})
	return string(b)
}

// TestAnalyzeSession drives one session id through three saves — the
// first save, a line inserted near the top, and that line deleted — and
// holds every reply to the session contract: X-Cache reports
// "session", and the body is byte-equal, outside timings, to a
// sessionless reply over the same sources. Session traffic neither
// reads nor fills the result cache.
func TestAnalyzeSession(t *testing.T) {
	ts := httptest.NewServer(New(Config{Jobs: 1}))
	defer ts.Close()

	for round, src := range []string{sessV1, sessInserted, sessV1} {
		resp, got := postAnalyze(t, ts, sessionBody("corpus-a", src))
		if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "session" {
			t.Fatalf("round %d: status %d, X-Cache %q; want 200 session",
				round, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		resp, want := postAnalyze(t, ts, analyzeBody(map[string]string{"prog.c": src}))
		if resp.StatusCode != 200 {
			t.Fatalf("round %d: sessionless status %d", round, resp.StatusCode)
		}
		if g, w := stripMS(string(got)), stripMS(string(want)); g != w {
			t.Fatalf("round %d: session reply differs from sessionless:\n%s\n---\n%s", round, g, w)
		}
	}

	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	// The sessionless replies are the cache's only traffic: two distinct
	// source versions missed and were stored, the repeat of the first
	// hit — and the third session request, sent while that report was
	// cached, did not read it.
	if m.ResultCache.Entries != 2 || m.ResultCache.Misses != 2 || m.ResultCache.Hits != 1 {
		t.Fatalf("result cache = %+v; want 2 entries, 2 misses, 1 hit", m.ResultCache)
	}
	if m.Analyses != 5 {
		t.Fatalf("analyses = %d; want 5 (three session saves, two sessionless misses)", m.Analyses)
	}
	// Session replies keep their own latency series, so editor saves
	// stay separable from cold misses.
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	prom, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := `cquald_request_seconds_count{cache="session"} 3`; !strings.Contains(string(prom), want) {
		t.Fatalf("prometheus exposition missing %q:\n%s", want, prom)
	}
}

// TestAnalyzeSessionIsolation pins that a session id carries no state:
// the same id under another mode answers for that mode, and another id
// over the same sources answers the same bytes.
func TestAnalyzeSessionIsolation(t *testing.T) {
	ts := httptest.NewServer(New(Config{Jobs: 1}))
	defer ts.Close()

	_, mono := postAnalyze(t, ts, sessionBody("corpus-a", sessV1))
	b, _ := json.Marshal(AnalyzeRequest{
		Sources: []SourceJSON{{Path: "prog.c", Text: sessV1}},
		Session: "corpus-a",
		Poly:    true,
	})
	_, poly := postAnalyze(t, ts, string(b))
	if !strings.Contains(string(mono), `"mode": "monomorphic"`) || !strings.Contains(string(poly), `"mode": "polymorphic"`) {
		t.Fatalf("session replies do not follow the request mode:\n%s\n---\n%s", mono, poly)
	}
	b, _ = json.Marshal(AnalyzeRequest{Sources: []SourceJSON{{Path: "prog.c", Text: sessV1}}, Poly: true})
	if _, want := postAnalyze(t, ts, string(b)); stripMS(string(poly)) != stripMS(string(want)) {
		t.Fatalf("poly session reply differs from sessionless:\n%s\n---\n%s", poly, want)
	}
	resp, other := postAnalyze(t, ts, sessionBody("corpus-b", sessV1))
	if resp.Header.Get("X-Cache") != "session" || stripMS(string(other)) != stripMS(string(mono)) {
		t.Fatalf("corpus-b reply (X-Cache %q) differs from corpus-a's:\n%s\n---\n%s",
			resp.Header.Get("X-Cache"), other, mono)
	}
}
