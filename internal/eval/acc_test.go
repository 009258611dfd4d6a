package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/postings"
)

// TestAccTableReset: a reset table is empty — no presence bit, no
// index entry, no slot or contribution node — whatever it held,
// including after its index grew; and a table keeping more than
// maxPooledBytes, in any of its arrays, is not pooled.
func TestAccTableReset(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tab := getAccTable(5000, 0, 0)
	for _, n := range []int{0, 1, 31, 32, 33, 700, 4000} {
		want := make(map[postings.DocID]float64)
		for len(want) < n {
			doc := postings.DocID(r.Intn(5000))
			v := float64(r.Intn(100))
			tab.vals[tab.slot(doc)] += v
			want[doc] += v
			tab.slots = push(tab.slots, slot{})
			tab.arena = push(tab.arena, node{})
		}
		got := make(map[postings.DocID]float64)
		for i, doc := range tab.docs {
			if !tab.has(doc) || tab.pos(doc) != int32(i) {
				t.Fatalf("n=%d: doc %d at %d not found there", n, doc, i)
			}
			got[doc] = tab.vals[i]
		}
		if len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: table holds %v, want %v", n, got, want)
		}
		tab.reset()
		for w, bits := range tab.present {
			if bits != 0 {
				t.Fatalf("n=%d: presence word %d = %x after reset", n, w, bits)
			}
		}
		for i, e := range tab.index {
			if e != (tableEntry{}) {
				t.Fatalf("n=%d: index entry %d = %+v after reset", n, i, e)
			}
		}
		if len(tab.docs)+len(tab.vals)+len(tab.slots)+len(tab.arena) != 0 {
			t.Fatalf("n=%d: %d docs, %d values, %d slots, %d nodes after reset",
				n, len(tab.docs), len(tab.vals), len(tab.slots), len(tab.arena))
		}
	}

	// The cap counts every array: a DF table of 8 192 accumulators (an
	// index of 2^14 entries) is pooled, one more doubles its index past
	// the cap, and so does a rank-safe reservation of many contributions
	// over few candidates.
	for _, c := range []struct {
		name                 string
		docs, entries, slots int
		pooled               bool
	}{
		{"8192 accumulators", 0, 0, 8192, true},
		{"8193 accumulators", 0, 0, 8193, false},
		{"100 candidates, 20 000 contributions", 100, 20000, 100, false},
		{"100 candidates, 1 000 contributions", 100, 1000, 100, true},
	} {
		freshAccTables()
		tab := getAccTable(40000, c.docs, c.entries)
		for d := 0; d < c.slots; d++ {
			tab.slot(postings.DocID(d))
		}
		putAccTable(tab)
		if pooled := len(tab.docs) == 0; pooled != c.pooled || !pooled && accTables.Get() == tab {
			t.Errorf("%s: %d bytes, pooled = %v, want %v", c.name, tab.bytes(), pooled, c.pooled)
		}
	}
}

// wideFixture has more documents than a pooled table may index, so an
// exhaustive run over its query outgrows the pool cap.
func wideFixture(t testing.TB) *fixture {
	const numDocs = 12000
	r := rand.New(rand.NewSource(38))
	var lists []postings.TermPostings
	for tm, share := range []float64{0.9, 0.5, 0.3, 0.1, 0.05, 0.02} {
		tp := postings.TermPostings{Name: fmt.Sprintf("w%d", tm)}
		for d := 0; d < numDocs; d++ {
			if r.Float64() < share {
				tp.Entries = append(tp.Entries, postings.Entry{Doc: postings.DocID(d), Freq: int32(1 + r.Intn(12))})
			}
		}
		lists = append(lists, tp)
	}
	return newFixture(t, lists, numDocs, 64)
}

// freshAccTables empties the table pool, so the next evaluation builds
// its table from nothing.
func freshAccTables() { accTables = sync.Pool{New: accTables.New} }

// step is one evaluation of a reuse sequence.
type step struct {
	algo   Algorithm
	q      Query
	p      Params
	cancel int // cancel as the cancel-th fetch is issued (0: never)
	faults bool
}

// runStep evaluates s on ev's pool behind a fetch-order hash.
func runStep(t *testing.T, f *fixture, ev *Evaluator, s step) filterRecord {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp := &seqPool{Pool: ev.Buf, cancelAt: s.cancel, cancel: cancel}
	if s.faults {
		f.faults(t, "permanent:prob=0.2")
		defer f.heal()
	}
	e := &Evaluator{Idx: ev.Idx, Buf: sp, Conv: ev.Conv, Params: s.p}
	res, err := e.EvaluateContext(ctx, s.algo, s.q)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("%v: %v", s.algo, err)
	}
	return recordFilter(s.algo.String(), res, sp)
}

// TestAccTableReuseSequences: the second evaluation of each sequence
// — after a run that outgrew the pool cap, one canceled mid-list and
// one degraded by faults, each also with the table passing between a
// filtering and a rank-safe method — equals, counters, trace rows,
// fetch order and answer bits, the same evaluation on an identical
// pool with a table built from nothing.
func TestAccTableReuseSequences(t *testing.T) {
	wide := wideFixture(t)
	tiny := loadGoldenEnv(t, "corpus")
	filtered := TunedParams()
	degradable := TunedParams()
	degradable.FaultBudget = 70
	for _, seq := range []struct {
		name  string
		f     *fixture
		steps [2]step
	}{
		{"past the cap, then filtered BAF", wide, [2]step{
			{algo: DF, q: Query{{0, 1}, {1, 1}, {2, 2}, {3, 1}}, p: fullParams()},
			{algo: BAF, q: Query{{1, 1}, {2, 1}, {4, 1}, {5, 3}}, p: filtered},
		}},
		{"canceled mid-list, then clean", tiny.fixture, [2]step{
			{algo: BAF, q: tiny.query(8), p: filtered, cancel: 12},
			{algo: DF, q: tiny.query(9), p: filtered},
		}},
		{"degraded, then clean", tiny.fixture, [2]step{
			{algo: DF, q: tiny.query(11), p: degradable, faults: true},
			{algo: WebLegend, q: tiny.query(10), p: filtered},
		}},
		{"BAF, then MAXSCORE", tiny.fixture, [2]step{
			{algo: BAF, q: tiny.query(9), p: filtered},
			{algo: MAXSCORE, q: tiny.query(8), p: filtered},
		}},
		{"NRA canceled mid-list, then DF", tiny.fixture, [2]step{
			{algo: NRA, q: tiny.query(8), p: filtered, cancel: 12},
			{algo: DF, q: tiny.query(9), p: filtered},
		}},
		{"MAXSCORE degraded, then TA", tiny.fixture, [2]step{
			{algo: MAXSCORE, q: tiny.query(11), p: degradable, faults: true},
			{algo: TA, q: tiny.query(10), p: filtered},
		}},
	} {
		t.Run(seq.name, func(t *testing.T) {
			var got [2]filterRecord
			for pass := range got {
				ev := seq.f.evaluator(t, 256, buffer.NewLRU(), filtered)
				first := runStep(t, seq.f, ev, seq.steps[0])
				if seq.steps[0].cancel > 0 && !first.Partial || seq.steps[0].faults && !first.Degraded {
					t.Fatalf("first step %+v did not end as the sequence needs", first)
				}
				if pass == 1 {
					freshAccTables()
				}
				got[pass] = runStep(t, seq.f, ev, seq.steps[1])
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("after reuse:\n %+v\nfrom a fresh table:\n %+v", got[0], got[1])
			}
		})
	}
	// Past 8 192 accumulators the index has 2^15 entries: 256 KiB alone.
	if got := runStep(t, wide, wide.evaluator(t, 256, buffer.NewLRU(), filtered), step{algo: DF, q: Query{{0, 1}, {1, 1}}, p: fullParams()}); got.Accumulators <= 1<<13 {
		t.Fatalf("the wide query has %d accumulators, not enough to pass the pool cap", got.Accumulators)
	}
}

// TestConcurrentFilteredEvaluations: under -race, eight goroutines
// evaluating all six methods on one Evaluator, each taking its table
// from the one pool, get the answers a serial run gets. Every page is resident before the first query, so the
// schedules see the same residency whatever the interleaving.
func TestConcurrentFilteredEvaluations(t *testing.T) {
	env := loadGoldenEnv(t, "corpus")
	ev := env.evaluator(t, env.ix.NumPagesTotal, buffer.NewLRU(), TunedParams())
	for id := 0; id < env.ix.NumPagesTotal; id++ {
		frame, _, err := ev.Buf.FetchContext(context.Background(), postings.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		ev.Buf.Unpin(frame)
	}
	type job struct {
		algo Algorithm
		q    Query
	}
	var jobs []job
	for _, algo := range append(append([]Algorithm{}, filterAlgos...), safeAlgos...) {
		for i := range goldenLists {
			jobs = append(jobs, job{algo, env.query(i)})
		}
	}
	answer := func(j job) string {
		res, err := ev.Evaluate(j.algo, j.q)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprintf("%v %d %x %d", res.Top, res.Accumulators, res.Smax, res.EntriesProcessed)
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = answer(j)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range jobs {
				i := (k + 5*g) % len(jobs)
				if got := answer(jobs[i]); got != want[i] {
					errs <- fmt.Sprintf("goroutine %d, %v lists=%d: %s, serial %s", g, jobs[i].algo, len(jobs[i].q), got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
