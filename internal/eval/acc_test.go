package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/rank"
)

// has reports whether the document is a candidate.
func (t *accTable) has(doc postings.DocID) bool {
	return t.present[uint32(doc)/64]&(1<<(uint32(doc)%64)) != 0
}

// set makes the document a candidate with accumulator v.
func (t *accTable) set(doc postings.DocID, v float64) {
	if w, bit := uint32(doc)/64, uint64(1)<<(uint32(doc)%64); t.present[w]&bit == 0 {
		t.present[w] |= bit
		t.n++
	}
	t.vals[doc] = v
}

// TestAccTableReset: a reset table is empty — no presence bit, no
// candidate — whatever it held, and while it held it every candidate
// read back its own accumulator.
func TestAccTableReset(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tab := getAccTable(5000)
	for _, n := range []int{0, 1, 31, 32, 33, 700, 4000, 5000} {
		want := make(map[postings.DocID]float64)
		for len(want) < n {
			doc := postings.DocID(r.Intn(5000))
			v := float64(r.Intn(100))
			want[doc] += v
			tab.set(doc, want[doc])
		}
		if tab.n != len(want) {
			t.Fatalf("n=%d: table counts %d candidates, holds %d", n, tab.n, len(want))
		}
		for doc := postings.DocID(0); doc < 5000; doc++ {
			if v, ok := want[doc]; tab.has(doc) != ok || ok && tab.vals[doc] != v {
				t.Fatalf("n=%d: doc %d present=%v value %v, want present=%v value %v", n, doc, tab.has(doc), tab.vals[doc], ok, v)
			}
		}
		tab.reset()
		for w, bits := range tab.present {
			if bits != 0 {
				t.Fatalf("n=%d: presence word %d = %x after reset", n, w, bits)
			}
		}
		if tab.n != 0 {
			t.Fatalf("n=%d: %d candidates after reset", n, tab.n)
		}
	}
}

// modelFilter is step 4(c) transcribed entry by entry over a map: each
// entry computes its own w_{d,t}·w_{q,t}, adds it to a candidate,
// inserts it above f_ins, and stops the list at the first f_dt ≤ f_add,
// giving back the page's entries behind it. vals mirrors the table's
// value slice, so a write to a document that is not admitted shows.
type modelFilter struct {
	cands   map[postings.DocID]float64
	vals    []float64
	smax    float64
	entries int
}

func (m *modelFilter) page(li *listState, page []postings.Entry) (stop bool) {
	m.entries += len(page)
	for i, e := range page {
		f := float64(e.Freq)
		if f <= li.fadd {
			m.entries -= len(page) - i - 1
			return true
		}
		w := rank.DocWeight(e.Freq, li.idf) * li.wqt
		old, ok := m.cands[e.Doc]
		switch {
		case ok:
			w += old
		case f <= li.fins:
			continue
		}
		m.cands[e.Doc] = w
		m.vals[e.Doc] = w
		m.smax = max(m.smax, w)
	}
	return false
}

// TestFilterMatchesModel: run.filter, the one-pass admission kernel,
// leaves the table, S_max and the entry count exactly where the
// entry-by-entry model does. Each case is one list —
// runs of equal f_dt over distinct documents, among them 0, 63, 64 and
// NumDocs−1, cut into pages of random size — admitted into a table that
// earlier rounds left holding candidates, under f_ins ≥ f_add drawn
// with 0, +Inf and whole f_dt values among them, some with f_add at or
// above the list's largest f_dt (the first run stops, as under
// ForceFirstPage).
func TestFilterMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	thresholds := func(maxF int) (fins, fadd float64) {
		switch r.Intn(7) {
		case 0:
			return 0, 0
		case 1:
			return math.Inf(1), 0
		case 2:
			return math.Inf(1), math.Inf(1)
		case 3: // the first run stops
			fadd = float64(maxF) + r.Float64()*float64(r.Intn(2))
			return fadd + r.Float64()*4, fadd
		case 4: // thresholds equal to some runs' f_dt
			fadd = float64(r.Intn(maxF))
			return fadd + float64(r.Intn(maxF)), fadd
		}
		fadd = r.Float64() * float64(maxF)
		return fadd + r.Float64()*float64(maxF), fadd
	}
	for c := 0; c < 400; c++ {
		numDocs := 65 + r.Intn(3000)
		tab := getAccTable(numDocs)
		m := &modelFilter{cands: make(map[postings.DocID]float64), vals: slices.Clone(tab.vals)}
		for i := r.Intn(numDocs / 2); i > 0; i-- {
			doc, v := postings.DocID(r.Intn(numDocs)), r.Float64()*50
			tab.set(doc, v)
			m.cands[doc], m.vals[doc] = v, v
			m.smax = max(m.smax, v)
		}

		docs := map[postings.DocID]bool{0: true, 63: true, 64: true, postings.DocID(numDocs - 1): true}
		for i := r.Intn(numDocs); i > 0; i-- {
			docs[postings.DocID(r.Intn(numDocs))] = true
		}
		maxF := 1 + r.Intn(12)
		var list []postings.Entry
		for doc := range docs {
			list = append(list, postings.Entry{Doc: doc, Freq: int32(1 + r.Intn(maxF))})
		}
		slices.SortFunc(list, func(a, b postings.Entry) int {
			if a.Freq != b.Freq {
				return int(b.Freq - a.Freq)
			}
			return int(a.Doc - b.Doc)
		})

		idf := r.Float64() * 5
		li := &listState{idf: idf, wqt: rank.QueryWeight(1+r.Intn(3), idf), tr: &TermTrace{}}
		li.fins, li.fadd = thresholds(int(list[0].Freq))
		ru := &run{acc: tab, smax: m.smax}
		for len(list) > 0 {
			page := list[:min(len(list), 1+r.Intn(40))]
			list = list[len(page):]
			li.tr.EntriesProcessed += len(page)
			stop := ru.filter(li, page)
			if stop != m.page(li, page) {
				t.Fatalf("case %d: kernel stop=%v, model %v", c, stop, !stop)
			}
			if stop {
				break
			}
		}

		name := fmt.Sprintf("case %d (numDocs %d, f_ins %v, f_add %v)", c, numDocs, li.fins, li.fadd)
		if tab.n != len(m.cands) {
			t.Fatalf("%s: |A| = %d, model %d", name, tab.n, len(m.cands))
		}
		for doc := postings.DocID(0); int(doc) < numDocs; doc++ {
			if _, ok := m.cands[doc]; tab.has(doc) != ok {
				t.Fatalf("%s: doc %d present=%v, model %v", name, doc, tab.has(doc), ok)
			}
			if got, want := math.Float64bits(tab.vals[doc]), math.Float64bits(m.vals[doc]); got != want {
				t.Fatalf("%s: doc %d value bits %x, model %x", name, doc, got, want)
			}
		}
		if math.Float64bits(ru.smax) != math.Float64bits(m.smax) {
			t.Fatalf("%s: S_max %v, model %v", name, ru.smax, m.smax)
		}
		if li.tr.EntriesProcessed != m.entries {
			t.Fatalf("%s: %d entries processed, model %d", name, li.tr.EntriesProcessed, m.entries)
		}
		putAccTable(tab)
	}
}

// wideFixture is a 12 000-document collection whose exhaustive runs
// hold thousands of accumulators.
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
func freshAccTables() { accTables = sync.Pool{New: func() any { return new(accTable) }} }

// step is one evaluation of a reuse sequence.
type step struct {
	algo   Algorithm
	q      Query
	p      Params
	cancel int // cancel as the cancel-th fetch is issued (0: never)
	faults bool
}

// runStep evaluates s on ev's pool behind a fetch-order hash.
func runStep(t *testing.T, f *fixture, ev *Evaluator, s step) goldenRecord {
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
	return record(s.algo.String(), res, sp)
}

// TestAccTableReuseSequences: the second evaluation of each sequence
// — after an unfiltered run over a wide collection, one canceled
// mid-list and one degraded by faults, each also with the table passing
// between a filtering and the exact method — equals, counters, trace
// rows, fetch order and answer bits, the same evaluation on an
// identical pool with a table built from nothing.
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
		{"unfiltered over 12 000 documents, then filtered BAF", wide, [2]step{
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
		{"MAXSCORE canceled mid-list, then DF", tiny.fixture, [2]step{
			{algo: MAXSCORE, q: tiny.query(8), p: filtered, cancel: 12},
			{algo: DF, q: tiny.query(9), p: filtered},
		}},
		{"MAXSCORE degraded, then BAF", tiny.fixture, [2]step{
			{algo: MAXSCORE, q: tiny.query(11), p: degradable, faults: true},
			{algo: BAF, q: tiny.query(10), p: filtered},
		}},
	} {
		t.Run(seq.name, func(t *testing.T) {
			var got [2]goldenRecord
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
}

// growingFixture is a collection of numDocs documents whose first
// documents' postings do not depend on numDocs: a larger one is a
// smaller one after ingest has added documents, which take the next
// DocIDs.
func growingFixture(t testing.TB, numDocs int) *fixture {
	var lists []postings.TermPostings
	for tm, share := range []float64{0.6, 0.3, 0.1, 0.03} {
		r := rand.New(rand.NewSource(int64(41 + tm)))
		tp := postings.TermPostings{Name: fmt.Sprintf("g%d", tm)}
		for d := 0; d < numDocs; d++ {
			if r.Float64() < share {
				tp.Entries = append(tp.Entries, postings.Entry{Doc: postings.DocID(d), Freq: int32(1 + r.Intn(9))})
			}
		}
		lists = append(lists, tp)
	}
	return newFixture(t, lists, numDocs, 32)
}

// TestTablesGrowAcrossResize: one pooled table serves an index that
// ingest has grown, and then a smaller index after a larger one. Every
// evaluation gets the same table from the pool, so a table that is not
// regrown to the larger index's NumDocs fails here. Each answer equals
// a run with a table built from nothing, in counters, trace rows, fetch
// order and answer bits.
func TestTablesGrowAcrossResize(t *testing.T) {
	small, grown := growingFixture(t, 3000), growingFixture(t, 3700)
	q := Query{{0, 1}, {1, 2}, {2, 1}, {3, 1}}
	defer freshAccTables()
	for _, seq := range []struct {
		name          string
		first, second *fixture
	}{
		{"grown by ingest", small, grown},
		{"smaller after larger", grown, small},
	} {
		t.Run(seq.name, func(t *testing.T) {
			for _, s := range []step{{algo: MAXSCORE, q: q, p: fullParams()}, {algo: BAF, q: q, p: TunedParams()}} {
				freshAccTables()
				want := runStep(t, seq.second, seq.second.evaluator(t, 64, buffer.NewLRU(), s.p), s)

				shared := new(accTable)
				accTables = sync.Pool{New: func() any { return shared }}
				runStep(t, seq.first, seq.first.evaluator(t, 64, buffer.NewLRU(), s.p), s)
				got := runStep(t, seq.second, seq.second.evaluator(t, 64, buffer.NewLRU(), s.p), s)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v after %d documents:\n %+v\nfrom a fresh table:\n %+v", s.algo, seq.first.ix.NumDocs, got, want)
				}
				if len(shared.vals) < grown.ix.NumDocs {
					t.Fatalf("%v: the shared table covers %d documents, the grown index %d", s.algo, len(shared.vals), grown.ix.NumDocs)
				}
			}
		})
	}
}

// TestConcurrentFilteredEvaluations: under -race, eight goroutines
// evaluating DF, BAF, WEB and MAXSCORE on one Evaluator, each taking its table
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
