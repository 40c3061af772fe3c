package main

// Every input a workload sends to the program derives from --seed: the
// C corpora, the Go services, the cquald edit scripts, the
// request-class draw and the arrival schedule. The program receives
// only these generated inputs, never the seed.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"time"

	"repro/internal/benchgen"
)

// subSeed derives an independent generator seed for part k of a run.
func subSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z &^ (1 << 63))
}

// cCorpus is one seeded benchgen program of about lines lines.
func cCorpus(lines int, seed int64) string {
	return benchgen.Generate(benchgen.ParallelCorpus(lines, seed))
}

func countLines(s string) int { return strings.Count(s, "\n") }

// The cquald_mix traffic comes in decks of thirty requests. Within a
// deck every random quantity is stratified: the class shares are exact
// (30% hits, ~53% misses, ~13% edits, ~3% Go requests), the thirty
// inter-arrival gaps are the exponential distribution's thirty
// quantile strata, each drawn once and shuffled, and miss sizes
// likewise cover their range evenly, as edit positions do per kind
// over the run. Arrivals are still Poisson-distributed gaps in a
// seeded order; what stratification removes is the run-to-run drift of
// how many heavy requests, how much bunching, how large the programs
// and how costly the edits are, which a 45-second window would
// otherwise turn into most of the spread between seeds.
//
// The mix is synthetic. No measured cquald traffic exists, so the
// class shares, the two editor sessions, the 20k-line session and
// 2–5k-line miss sizes are a stated model, not observed load: an IDE
// back end where most requests are re-checks of unchanged files (hits)
// or of files opened once (misses), a save every few seconds from two
// open editors, and now and then a Go service. The numbers are
// unverified against any real deployment.
//
// The offered rate is what can be checked: each run reports the
// daemon's CPU share of nproc CPUs and how busy the one heavy-class
// connection was. At 2 requests/s on two CPUs they read about 0.2 and
// 0.3: the heavy lane is loaded, the CPUs are not, and nothing
// saturates. This is lighter than a loaded two-CPU daemon, on purpose:
// queueing multiplies the host's own speed drift into latency. At 3
// requests/s (about 0.3 and 0.4) the mean latency spread up to 0.48 of
// itself over ten seeds on a contended host, at 5 requests/s (about
// 0.45 and 0.63) the median spread 0.30 on a quiet one.
const (
	mixRate         = 2.0 // offered requests per second
	mixDeckSize     = 30
	mixSessions     = 2
	mixSessionLines = 20000
	mixPrime        = 6 // answered C programs the hit class re-sends
	mixLimitMS      = 4000.0
)

// One deck's class counts. The deck size is a multiple of the heavy
// count (edits and Go), which deckClasses spreads one per block.
const (
	deckHits   = 9
	deckMisses = 16
	deckEdits  = 4
	deckGo     = mixDeckSize - deckHits - deckMisses - deckEdits
)

// deckEditKinds is one deck's saves: half keep every line number, half
// insert or delete a line and shift every line below it.
var deckEditKinds = [deckEdits]string{"inplace", "insert", "inplace", "delete"}

// source and analyzeBody mirror the cquald request protocol.
type source struct {
	Path string `json:"path"`
	Text string `json:"text"`
}

type analyzeBody struct {
	Sources []source `json:"sources"`
	Lang    string   `json:"lang,omitempty"`
	Session string   `json:"session,omitempty"`
}

// mixRequest is one scheduled request.
type mixRequest struct {
	At    time.Duration
	Class string
	// Kind refines the edit class: "inplace", "insert" or "delete".
	Kind    string
	Target  int // hit: index into mixPlan.Prime
	Body    []byte
	Sources []source
	Lang    string
	Lines   int
}

// mixPlan is everything cquald_mix sends, in order.
type mixPlan struct {
	Sessions []mixRequest // each session's first save, sent during set-up
	Prime    []mixRequest // answered during set-up; the hit class re-sends them
	Requests []mixRequest
}

func newRequest(class string, body analyzeBody) mixRequest {
	data, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain strings always marshal
	}
	lines := 0
	for _, s := range body.Sources {
		lines += countLines(s.Text)
	}
	return mixRequest{Class: class, Body: data, Sources: body.Sources, Lang: body.Lang, Lines: lines}
}

var accRE = regexp.MustCompile(`^\tint acc = \d+;$`)

// editSession replays one editor's saves: in-place body edits that keep
// every line number, and inserted or deleted lines that shift every
// line below them.
type editSession struct {
	name, path string
	lines      []string
	inserted   int
	r          *rand.Rand
}

// edit applies one save of the given kind at relative position at in
// [0, 1). A delete needs an inserted line to remove, which newMixPlan
// guarantees.
func (s *editSession) edit(kind string, at float64) {
	switch kind {
	case "inplace":
		var cands []int
		for i, l := range s.lines {
			if accRE.MatchString(l) {
				cands = append(cands, i)
			}
		}
		i := cands[int(at*float64(len(cands)))]
		s.lines[i] = fmt.Sprintf("\tint acc = %d;", 100+s.r.Intn(900))
	case "delete":
		// The inserted line nearest the stratified position goes.
		best, want := -1, int(at*float64(len(s.lines)))
		for i, l := range s.lines {
			if strings.HasPrefix(l, "/* edit ") && (best < 0 || abs(i-want) < abs(best-want)) {
				best = i
			}
		}
		s.lines = append(s.lines[:best], s.lines[best+1:]...)
		s.inserted--
	default:
		i := int(at * float64(len(s.lines)))
		s.lines = append(s.lines[:i], append([]string{fmt.Sprintf("/* edit %d */", s.r.Intn(1e6))}, s.lines[i:]...)...)
		s.inserted++
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// strata returns n values covering [0, 1) once each — one uniform draw
// inside each of n equal strata — in shuffled order.
func strata(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = (float64(k) + r.Float64()) / float64(n)
	}
	r.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// midpoints returns the midpoints of n equal strata of [0, 1) in
// shuffled order: strata without the draw inside each.
func midpoints(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = (float64(k) + 0.5) / float64(n)
	}
	r.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

func (s *editSession) body() analyzeBody {
	return analyzeBody{Session: s.name, Sources: []source{{Path: s.path, Text: strings.Join(s.lines, "\n")}}}
}

// goProgram is a small seeded net/http + database/sql service; every
// Go request is a distinct text, so none is a result-cache hit.
func goProgram(i int, r *rand.Rand) string {
	return fmt.Sprintf(`package main

import (
	"database/sql"
	"fmt"
	"net/http"
	"strings"
)

type store struct {
	db    *sql.DB
	table string
}

func (s *store) lookup(name string) (int, error) {
	row := s.db.QueryRow("SELECT n FROM "+s.table+" WHERE name = ?", name)
	var n int
	err := row.Scan(&n)
	return n + %d, err
}

func handler%d(s *store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimSpace(r.FormValue("%s"))
		n, err := s.lookup(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "%%s=%%d\n", name, n)
	}
}

func main() {
	s := &store{table: "t%d"}
	http.HandleFunc("/%s", handler%d(s))
	http.ListenAndServe(":%d", nil)
}
`, r.Intn(100), i, fmt.Sprintf("k%d", r.Intn(1000)), r.Intn(1000), fmt.Sprintf("p%d", r.Intn(1000)), i, 8000+r.Intn(1000))
}

// repeat lists n copies of class.
func repeat(class string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = class
	}
	return out
}

// deckClasses orders one deck's classes. The heavy requests (edits and
// Go) are spaced evenly: each equal block of the deck opens with one, so
// heavy requests arrive every sixth request. A Go request then rarely
// still runs when the next heavy request comes, and no seed bunches
// them into one long busy spell that queues the edits behind it and
// slows every miss around it. Which heavy request opens which block is
// seeded.
func deckClasses(r *rand.Rand) []string {
	heavy := append(repeat("edit", deckEdits), repeat("go", deckGo)...)
	light := append(repeat("hit", deckHits), repeat("miss", deckMisses)...)
	r.Shuffle(len(heavy), func(a, b int) { heavy[a], heavy[b] = heavy[b], heavy[a] })
	r.Shuffle(len(light), func(a, b int) { light[a], light[b] = light[b], light[a] })
	block := mixDeckSize / len(heavy)
	var out []string
	for _, h := range heavy {
		out = append(append(out, h), light[:block-1]...)
		light = light[block-1:]
	}
	return out
}

// newMixPlan generates the cquald_mix traffic for a window of the given
// length: as many whole decks as the offered rate fills it with.
func newMixPlan(seed int64, window time.Duration) *mixPlan {
	plan := &mixPlan{}
	sessions := make([]*editSession, mixSessions)
	for i := range sessions {
		text := cCorpus(mixSessionLines, subSeed(seed, 100+i))
		sessions[i] = &editSession{
			name: fmt.Sprintf("editor%d", i), path: fmt.Sprintf("edit%d.c", i),
			lines: strings.Split(text, "\n"), r: rand.New(rand.NewSource(subSeed(seed, 200+i))),
		}
		req := newRequest("edit", sessions[i].body())
		req.Kind = "open"
		plan.Sessions = append(plan.Sessions, req)
	}
	r := rand.New(rand.NewSource(subSeed(seed, 2)))
	smallC := func(path string, size float64) analyzeBody {
		text := cCorpus(2000+int(size*3000), r.Int63())
		return analyzeBody{Sources: []source{{Path: path, Text: text}}}
	}
	for i, size := range strata(r, mixPrime) {
		plan.Prime = append(plan.Prime, newRequest("miss", smallC(fmt.Sprintf("prime%d.c", i), size)))
	}
	decks := max(1, int(math.Round(window.Seconds()*mixRate/mixDeckSize)))
	// Edit positions are the strata midpoints per kind over the whole
	// run: a line-shifting save costs more the nearer the top of the
	// file it lands, and a run holds only a few saves of each kind, so
	// a draw inside each stratum would move a run's edit cost from seed
	// to seed. The seed still sets their order and the corpora.
	places := map[string][]float64{}
	for _, kind := range []string{"inplace", "insert", "delete"} {
		n := 0
		for _, k := range deckEditKinds {
			if k == kind {
				n++
			}
		}
		places[kind] = midpoints(r, decks*n)
	}
	at := time.Duration(0)
	for d := 0; d < decks; d++ {
		classes := deckClasses(r)
		gaps := strata(r, mixDeckSize)
		sizes := strata(r, deckMisses)
		edits := deckEdits
		kinds := append([]string(nil), deckEditKinds[:]...)
		r.Shuffle(edits, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		// A deck's insert comes before its delete, and a delete goes to
		// the session with the most inserted lines, so every delete
		// finds a line to remove and each run holds exactly as many
		// inserts and deletes as its decks.
		if ins, del := slices.Index(kinds, "insert"), slices.Index(kinds, "delete"); del < ins {
			kinds[ins], kinds[del] = kinds[del], kinds[ins]
		}
		owners := make([]int, edits)
		for k := range owners {
			owners[k] = k % mixSessions
		}
		r.Shuffle(edits, func(a, b int) { owners[a], owners[b] = owners[b], owners[a] })
		for k, class := range classes {
			i := len(plan.Requests)
			at += time.Duration(-math.Log(1-gaps[k]) / mixRate * float64(time.Second))
			var req mixRequest
			switch class {
			case "hit":
				t := r.Intn(mixPrime)
				req = plan.Prime[t]
				req.Class, req.Target = "hit", t
			case "miss":
				req = newRequest("miss", smallC(fmt.Sprintf("miss%d.c", i), sizes[0]))
				sizes = sizes[1:]
			case "edit":
				s := sessions[owners[0]]
				k := kinds[0]
				if k == "delete" {
					for _, o := range sessions {
						if o.inserted > s.inserted {
							s = o
						}
					}
				}
				s.edit(k, places[k][0])
				owners, kinds, places[k] = owners[1:], kinds[1:], places[k][1:]
				req = newRequest("edit", s.body())
				req.Kind = k
			case "go":
				req = newRequest("go", analyzeBody{Lang: "go",
					Sources: []source{{Path: fmt.Sprintf("svc%d/main.go", i), Text: goProgram(i, r)}}})
			}
			req.At = at
			plan.Requests = append(plan.Requests, req)
		}
	}
	return plan
}
