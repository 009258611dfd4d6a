package eval

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/rank"
	"bufir/internal/storage"
)

// fixture bundles one test index with its store and page payloads.
type fixture struct {
	lists []postings.TermPostings
	ix    *postings.Index
	store *storage.Store
	// disk is what every pool the fixture builds reads from: the
	// healthy store, or a fault schedule in front of it (see faults).
	disk  *switchStore
	conv  *postings.ConversionTable
	pages [][]postings.Entry
	nDocs int
}

// switchStore lets a test put a seeded fault schedule under a live
// pool for one phase and take it away for the next ("the store
// heals") without rebuilding the pool. The tests that swap are
// single-threaded, so a plain field is safe.
type switchStore struct{ inner buffer.PageReader }

func (s *switchStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	return s.inner.ReadContext(ctx, id)
}

// faults routes the fixture's pools through a FaultStore over the
// healthy store, built from a storage.ParseFaultSchedule spec.
func (f *fixture) faults(t testing.TB, spec string) {
	t.Helper()
	rules, err := storage.ParseFaultSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := storage.NewFaultStore(f.store, 1, rules)
	if err != nil {
		t.Fatal(err)
	}
	f.disk.inner = fs
}

// heal removes the fault schedule again.
func (f *fixture) heal() { f.disk.inner = f.store }

// newPool builds the serial (one-shard) buffer manager over the
// fixture's disk.
func (f *fixture) newPool(t testing.TB, bufPages int, pol buffer.Policy) *buffer.Manager {
	t.Helper()
	return f.poolOver(t, bufPages, f.disk, pol)
}

// poolOver builds the serial buffer manager over any store.
func (f *fixture) poolOver(t testing.TB, bufPages int, store buffer.PageReader, pol buffer.Policy) *buffer.Manager {
	t.Helper()
	mgr, err := buffer.NewManager(bufPages, 1, store, f.ix, func(int) buffer.Policy { return pol })
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

func newFixture(t testing.TB, lists []postings.TermPostings, numDocs, pageSize int) *fixture {
	t.Helper()
	ix, pages, err := postings.Build(lists, numDocs, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore(pages)
	return &fixture{
		lists: lists,
		ix:    ix,
		store: store,
		disk:  &switchStore{inner: store},
		conv:  postings.NewConversionTable(ix, postings.DefaultMaxKey),
		pages: pages,
		nDocs: numDocs,
	}
}

// evaluator builds an Evaluator over a fresh buffer pool.
func (f *fixture) evaluator(t testing.TB, bufPages int, pol buffer.Policy, p Params) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(f.ix, f.newPool(t, bufPages, pol), f.conv, p)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// bruteForce computes the exact cosine ranking from the raw lists the
// way exhaustive DF does — contributions added from zero in canonical
// term order, then rank.TopN — so its scores are DF's bits.
func (f *fixture) bruteForce(q Query, topN int) []rank.ScoredDoc {
	ordered := slices.Clone(q)
	slices.SortStableFunc(ordered, func(a, b QueryTerm) int {
		return cmp.Or(cmp.Compare(f.ix.IDF(b.Term), f.ix.IDF(a.Term)), cmp.Compare(a.Term, b.Term))
	})
	acc := make(map[postings.DocID]float64)
	for _, qt := range ordered {
		tm := f.ix.Terms[qt.Term]
		wqt := rank.QueryWeight(qt.Fqt, tm.IDF)
		for _, e := range f.lists[qt.Term].Entries {
			acc[e.Doc] += rank.DocWeight(e.Freq, tm.IDF) * wqt
		}
	}
	return rank.TopN(acc, f.ix.DocLen, topN)
}

// smallFixture: three terms with controlled frequencies over 10 docs.
func smallFixture(t testing.TB) *fixture {
	lists := []postings.TermPostings{
		{Name: "alpha", Entries: []postings.Entry{
			{Doc: 0, Freq: 9}, {Doc: 1, Freq: 6}, {Doc: 2, Freq: 4},
			{Doc: 3, Freq: 2}, {Doc: 4, Freq: 1}, {Doc: 5, Freq: 1},
		}},
		{Name: "beta", Entries: []postings.Entry{
			{Doc: 1, Freq: 5}, {Doc: 6, Freq: 3}, {Doc: 7, Freq: 1},
		}},
		{Name: "gamma", Entries: []postings.Entry{{Doc: 0, Freq: 2}}},
	}
	return newFixture(t, lists, 10, 2)
}

func fullParams() Params { return Params{CAdd: 0, CIns: 0, TopN: 10} }

func TestFullEvaluationMatchesBruteForce(t *testing.T) {
	f := smallFixture(t)
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 2}, {Term: 2, Fqt: 1}}
	for _, algo := range []Algorithm{DF, BAF} {
		ev := f.evaluator(t, 64, buffer.NewLRU(), fullParams())
		res, err := ev.Evaluate(algo, q)
		if err != nil {
			t.Fatal(err)
		}
		want := f.bruteForce(q, 10)
		if len(res.Top) != len(want) {
			t.Fatalf("%v: %d results, want %d", algo, len(res.Top), len(want))
		}
		for i := range want {
			if res.Top[i].Doc != want[i].Doc || math.Abs(res.Top[i].Score-want[i].Score) > 1e-9 {
				t.Errorf("%v pos %d: got %v, want %v", algo, i, res.Top[i], want[i])
			}
		}
	}
}

func TestFullEvaluationReadsEverything(t *testing.T) {
	f := smallFixture(t)
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 1}}
	ev := f.evaluator(t, 64, buffer.NewLRU(), fullParams())
	res, err := ev.Evaluate(DF, q)
	if err != nil {
		t.Fatal(err)
	}
	totalPages := f.ix.NumPagesTotal
	if res.PagesProcessed != totalPages || res.PagesRead != totalPages {
		t.Errorf("full eval processed %d read %d, want %d", res.PagesProcessed, res.PagesRead, totalPages)
	}
	totalEntries := 0
	for _, l := range f.lists {
		totalEntries += len(l.Entries)
	}
	if res.EntriesProcessed != totalEntries {
		t.Errorf("entries %d, want %d", res.EntriesProcessed, totalEntries)
	}
	if res.Accumulators != 8 { // docs 0..7 appear somewhere
		t.Errorf("accumulators %d, want 8", res.Accumulators)
	}
}

func TestDFProcessesTermsInIDFOrder(t *testing.T) {
	f := smallFixture(t)
	// idf: gamma (log2 10) > beta (log2 10/3) > alpha (log2 10/6)
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 1}}
	ev := f.evaluator(t, 64, buffer.NewLRU(), fullParams())
	res, err := ev.Evaluate(DF, q)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tr := range res.Trace {
		names = append(names, tr.Name)
	}
	want := []string{"gamma", "beta", "alpha"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("DF order = %v, want %v", names, want)
		}
	}
	// S_max before each term never decreases.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].SmaxBefore < res.Trace[i-1].SmaxBefore {
			t.Error("S_max decreased between terms")
		}
	}
}

func TestFilteringStopsAtAdditionThreshold(t *testing.T) {
	f := smallFixture(t)
	// Query on alpha alone after planting a large S_max via CAdd:
	// easier to drive thresholds via a two-term query where gamma's
	// processing creates S_max and alpha is cut.
	q := Query{{Term: 2, Fqt: 5}, {Term: 0, Fqt: 1}}
	// gamma: f=2, fq=5, idf^2 = (log2 10)^2 ≈ 11.03 => S_max ≈ 110.3.
	// alpha idf = log2(10/6) ≈ 0.737, denom = 1*0.543.
	// choose CAdd so fadd ≈ 0.02*110/0.543... pick via explicit params:
	p := Params{CAdd: 0.02, CIns: 0.2, TopN: 10}
	ev := f.evaluator(t, 64, buffer.NewLRU(), p)
	res, err := ev.Evaluate(DF, q)
	if err != nil {
		t.Fatal(err)
	}
	var alphaTrace *TermTrace
	for i := range res.Trace {
		if res.Trace[i].Name == "alpha" {
			alphaTrace = &res.Trace[i]
		}
	}
	if alphaTrace == nil {
		t.Fatal("no alpha trace")
	}
	// fadd = .02*110.3/0.543 ≈ 4.06: scanning stops at the first entry
	// with f <= 4 (doc 2, f=4), which is on page 2.
	if alphaTrace.FAdd < 4 || alphaTrace.FAdd > 4.2 {
		t.Fatalf("alpha fadd = %g, expected ≈4.06", alphaTrace.FAdd)
	}
	if alphaTrace.PagesProcessed != 2 {
		t.Errorf("alpha processed %d pages, want 2 (stop at first f<=fadd)", alphaTrace.PagesProcessed)
	}
	if alphaTrace.EntriesProcessed != 3 { // 9, 6, then 4 triggers stop
		t.Errorf("alpha entries = %d, want 3", alphaTrace.EntriesProcessed)
	}
}

func TestTermSkippedWhenFMaxBelowFAdd(t *testing.T) {
	f := smallFixture(t)
	// Make S_max enormous relative to beta's weights: query gamma with
	// huge fq, then beta (fmax 5).
	q := Query{{Term: 2, Fqt: 100}, {Term: 1, Fqt: 1}}
	p := Params{CAdd: 1, CIns: 1, TopN: 10}
	ev := f.evaluator(t, 64, buffer.NewLRU(), p)
	res, err := ev.Evaluate(DF, q)
	if err != nil {
		t.Fatal(err)
	}
	var betaTrace *TermTrace
	for i := range res.Trace {
		if res.Trace[i].Name == "beta" {
			betaTrace = &res.Trace[i]
		}
	}
	if betaTrace == nil || !betaTrace.Skipped {
		t.Fatalf("beta should be skipped entirely: %+v", betaTrace)
	}
	if betaTrace.PagesProcessed != 0 || betaTrace.PagesRead != 0 {
		t.Error("skipped term touched pages")
	}
}

func TestForceFirstPage(t *testing.T) {
	f := smallFixture(t)
	q := Query{{Term: 2, Fqt: 100}, {Term: 1, Fqt: 1}}
	p := Params{CAdd: 1, CIns: 1, TopN: 10, ForceFirstPage: true}
	ev := f.evaluator(t, 64, buffer.NewLRU(), p)
	res, err := ev.Evaluate(DF, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Trace {
		if tr.Skipped {
			t.Errorf("term %s skipped despite ForceFirstPage", tr.Name)
		}
		if tr.PagesProcessed < 1 {
			t.Errorf("term %s processed %d pages, want >= 1", tr.Name, tr.PagesProcessed)
		}
	}
}

func TestBAFPrefersBufferedTerm(t *testing.T) {
	f := smallFixture(t)
	// Warm the buffers with beta's pages via a first query.
	ev := f.evaluator(t, 64, buffer.NewLRU(), fullParams())
	if _, err := ev.Evaluate(DF, Query{{Term: 1, Fqt: 1}}); err != nil {
		t.Fatal(err)
	}
	// Now a two-term query: alpha (3 pages, cold) vs beta (2 pages,
	// warm). BAF must process beta first even though alpha/beta idf
	// order would differ.
	res, err := ev.Evaluate(BAF, Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace[0].Name != "beta" {
		t.Errorf("BAF first term = %s, want beta (buffered)", res.Trace[0].Name)
	}
	if res.Trace[0].EstimatedReads != 0 {
		t.Errorf("beta estimated reads = %d, want 0", res.Trace[0].EstimatedReads)
	}
	if res.Trace[0].PagesRead != 0 {
		t.Errorf("beta pages read = %d, want 0 (warm)", res.Trace[0].PagesRead)
	}
	if res.Trace[1].EstimatedReads != 3 { // alpha: 3 pages, none buffered
		t.Errorf("alpha estimated reads = %d, want 3", res.Trace[1].EstimatedReads)
	}
	if res.SelectionInquiries != 3 { // T(T+1)/2 for T=2
		t.Errorf("selection inquiries = %d, want 3", res.SelectionInquiries)
	}
}

func TestBAFTieBreakHigherIDF(t *testing.T) {
	f := smallFixture(t)
	// Cold buffers, full params: every term needs its full page count,
	// so beta (2 pages) and gamma (1 page) and alpha (3 pages) differ;
	// with equal dt the higher idf wins — force equality by comparing
	// beta (2 pages) with a same-size competitor: reuse gamma+solo not
	// available, so instead check the overall cold order is by
	// ascending page count (fewest estimated reads first).
	ev := f.evaluator(t, 64, buffer.NewLRU(), fullParams())
	res, err := ev.Evaluate(BAF, Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tr := range res.Trace {
		got = append(got, tr.Name)
	}
	want := []string{"gamma", "beta", "alpha"} // 1, 2, 3 pages
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BAF cold order = %v, want %v", got, want)
		}
	}
}

func TestPagesReadNeverExceedsProcessed(t *testing.T) {
	f := smallFixture(t)
	ev := f.evaluator(t, 2, buffer.NewLRU(), Params{CAdd: 0.01, CIns: 0.1, TopN: 5})
	for i := 0; i < 3; i++ {
		res, err := ev.Evaluate(BAF, Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if res.PagesRead > res.PagesProcessed {
			t.Errorf("read %d > processed %d", res.PagesRead, res.PagesProcessed)
		}
		for _, tr := range res.Trace {
			if tr.PagesProcessed > tr.ListPages {
				t.Errorf("term %s processed %d of %d pages", tr.Name, tr.PagesProcessed, tr.ListPages)
			}
		}
	}
}

// TestQueryValidation: one validator serves every method, and a
// rejected query returns no Result.
func TestQueryValidation(t *testing.T) {
	f := smallFixture(t)
	ev := f.evaluator(t, 8, buffer.NewLRU(), fullParams())
	cases := []struct {
		name string
		q    Query
	}{
		{"empty query", Query{}},
		{"term out of range", Query{{Term: 99, Fqt: 1}}},
		{"negative term id", Query{{Term: -1, Fqt: 1}}},
		{"fqt < 1", Query{{Term: 0, Fqt: 0}}},
		{"duplicate term", Query{{Term: 0, Fqt: 1}, {Term: 0, Fqt: 2}}},
		// Canonical order puts the twins side by side.
		{"duplicate term apart", Query{{Term: 0, Fqt: 1}, {Term: 2, Fqt: 1}, {Term: 0, Fqt: 2}}},
	}
	for _, algo := range []Algorithm{DF, BAF, WebLegend, MAXSCORE} {
		for _, tc := range cases {
			if res, err := ev.Evaluate(algo, tc.q); err == nil || res != nil {
				t.Errorf("%v %s: res=%v err=%v, want a validation error", algo, tc.name, res, err)
			}
		}
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{CAdd: -1, CIns: 0, TopN: 1},
		{CAdd: 0.5, CIns: 0.1, TopN: 1}, // CIns < CAdd
		{CAdd: 0, CIns: 0, TopN: 0},
		{CAdd: math.NaN(), CIns: math.NaN(), TopN: 1},
		{CAdd: 0.001, CIns: math.NaN(), TopN: 1},
		{CAdd: math.Inf(1), CIns: math.Inf(1), TopN: 1},
		{CAdd: 0.001, CIns: math.Inf(1), TopN: 1},
		{CAdd: math.Inf(-1), CIns: 0.1, TopN: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if err := PaperParams().Validate(); err != nil {
		t.Errorf("PaperParams invalid: %v", err)
	}
	if err := TunedParams().Validate(); err != nil {
		t.Errorf("TunedParams invalid: %v", err)
	}
}

func TestZeroIDFTermContributesNothing(t *testing.T) {
	// A term appearing in every document has idf 0; it must not crash
	// and must not affect scores.
	lists := []postings.TermPostings{
		{Name: "everywhere", Entries: []postings.Entry{
			{Doc: 0, Freq: 3}, {Doc: 1, Freq: 2}, {Doc: 2, Freq: 1},
		}},
		{Name: "selective", Entries: []postings.Entry{{Doc: 1, Freq: 2}}},
	}
	f := newFixture(t, lists, 3, 2)
	ev := f.evaluator(t, 8, buffer.NewLRU(), Params{CAdd: 0.01, CIns: 0.1, TopN: 3})
	res, err := ev.Evaluate(DF, Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) == 0 || res.Top[0].Doc != 1 {
		t.Errorf("top = %v, want doc 1 first", res.Top)
	}
}

func TestDeterminism(t *testing.T) {
	f := smallFixture(t)
	q := Query{{Term: 0, Fqt: 2}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 3}}
	p := Params{CAdd: 0.01, CIns: 0.1, TopN: 5}
	run := func(algo Algorithm) *Result {
		ev := f.evaluator(t, 4, buffer.NewRAP(), p)
		res, err := ev.Evaluate(algo, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, algo := range []Algorithm{DF, BAF} {
		a, b := run(algo), run(algo)
		if a.PagesRead != b.PagesRead || a.Accumulators != b.Accumulators || a.Smax != b.Smax {
			t.Errorf("%v: non-deterministic stats", algo)
		}
		for i := range a.Top {
			if a.Top[i] != b.Top[i] {
				t.Errorf("%v: non-deterministic ranking", algo)
			}
		}
	}
}

// TestRandomizedFullAgreement: over random indexes and queries, DF and
// BAF with filtering off must both match brute force exactly,
// regardless of buffer size and policy.
func TestRandomizedFullAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		numDocs := 4 + r.Intn(30)
		numTerms := 2 + r.Intn(5)
		lists := make([]postings.TermPostings, numTerms)
		for tm := 0; tm < numTerms; tm++ {
			df := 1 + r.Intn(numDocs)
			perm := r.Perm(numDocs)[:df]
			entries := make([]postings.Entry, df)
			for i, d := range perm {
				entries[i] = postings.Entry{Doc: postings.DocID(d), Freq: int32(1 + r.Intn(9))}
			}
			lists[tm] = postings.TermPostings{Name: string(rune('a' + tm)), Entries: entries}
		}
		f := newFixture(t, lists, numDocs, 1+r.Intn(4))
		var q Query
		for tm := 0; tm < numTerms; tm++ {
			if r.Intn(2) == 0 || tm == 0 {
				q = append(q, QueryTerm{Term: postings.TermID(tm), Fqt: 1 + r.Intn(4)})
			}
		}
		want := f.bruteForce(q, 10)
		pols := []func() buffer.Policy{
			func() buffer.Policy { return buffer.NewLRU() },
			func() buffer.Policy { return buffer.NewMRU() },
			func() buffer.Policy { return buffer.NewRAP() },
		}
		for _, algo := range []Algorithm{DF, BAF} {
			for _, mkPol := range pols {
				bufPages := 1 + r.Intn(f.ix.NumPagesTotal+2)
				ev := f.evaluator(t, bufPages, mkPol(), fullParams())
				res, err := ev.Evaluate(algo, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Top) != len(want) {
					t.Fatalf("iter %d %v: %d results, want %d", iter, algo, len(res.Top), len(want))
				}
				for i := range want {
					if res.Top[i].Doc != want[i].Doc || math.Abs(res.Top[i].Score-want[i].Score) > 1e-9 {
						t.Fatalf("iter %d %v/%s pos %d: got %+v want %+v",
							iter, algo, mkPol().Name(), i, res.Top[i], want[i])
					}
				}
			}
		}
	}
}

// TestFilteredSubsetProperty: with filtering on, every returned score
// is <= the exact score (the algorithm only ever under-accumulates)
// and the candidate set is a subset of the full one.
func TestFilteredSubsetProperty(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 40; iter++ {
		numDocs := 6 + r.Intn(30)
		lists := make([]postings.TermPostings, 4)
		for tm := range lists {
			df := 1 + r.Intn(numDocs)
			perm := r.Perm(numDocs)[:df]
			entries := make([]postings.Entry, df)
			for i, d := range perm {
				entries[i] = postings.Entry{Doc: postings.DocID(d), Freq: int32(1 + r.Intn(12))}
			}
			lists[tm] = postings.TermPostings{Name: string(rune('a' + tm)), Entries: entries}
		}
		f := newFixture(t, lists, numDocs, 2)
		q := Query{{Term: 0, Fqt: 3}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 2}, {Term: 3, Fqt: 1}}

		exact := make(map[postings.DocID]float64)
		for _, qt := range q {
			tm := f.ix.Terms[qt.Term]
			wqt := rank.QueryWeight(qt.Fqt, tm.IDF)
			for _, e := range f.lists[qt.Term].Entries {
				exact[e.Doc] += rank.DocWeight(e.Freq, tm.IDF) * wqt
			}
		}
		for _, algo := range []Algorithm{DF, BAF} {
			ev := f.evaluator(t, 64, buffer.NewLRU(), Params{CAdd: 0.05, CIns: 0.3, TopN: numDocs})
			res, err := ev.Evaluate(algo, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, sd := range res.Top {
				got := sd.Score * f.ix.DocLen[sd.Doc]
				if got > exact[sd.Doc]+1e-9 {
					t.Fatalf("iter %d %v: doc %d filtered score %g exceeds exact %g",
						iter, algo, sd.Doc, got, exact[sd.Doc])
				}
			}
			if res.Accumulators > len(exact) {
				t.Fatalf("iter %d %v: candidate set %d larger than full %d",
					iter, algo, res.Accumulators, len(exact))
			}
		}
	}
}

// TestTraceAccounting: aggregate counters equal the sums of the trace.
func TestTraceAccounting(t *testing.T) {
	f := smallFixture(t)
	ev := f.evaluator(t, 4, buffer.NewLRU(), Params{CAdd: 0.01, CIns: 0.05, TopN: 5})
	res, err := ev.Evaluate(BAF, Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 2}, {Term: 2, Fqt: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var proc, entries, reads int
	var roundTime time.Duration
	for _, tr := range res.Trace {
		proc += tr.PagesProcessed
		entries += tr.EntriesProcessed
		reads += tr.PagesRead
		roundTime += tr.Elapsed
		// Every touched page is exactly one of hit or miss.
		if tr.PagesHit+tr.PagesRead != tr.PagesProcessed {
			t.Errorf("term %q: hits %d + reads %d != processed %d",
				tr.Name, tr.PagesHit, tr.PagesRead, tr.PagesProcessed)
		}
	}
	if proc != res.PagesProcessed || entries != res.EntriesProcessed || reads != res.PagesRead {
		t.Errorf("trace sums (%d,%d,%d) != result (%d,%d,%d)",
			proc, entries, reads, res.PagesProcessed, res.EntriesProcessed, res.PagesRead)
	}
	// The query's wall time covers the term rounds plus ranking.
	if res.Elapsed <= 0 {
		t.Error("Result.Elapsed not stamped")
	}
	if roundTime > res.Elapsed {
		t.Errorf("trace round times %v exceed total %v", roundTime, res.Elapsed)
	}
}

func TestAlgorithmString(t *testing.T) {
	if DF.String() != "DF" || BAF.String() != "BAF" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm should still format")
	}
}

func TestWebLegendColdFallsBackToDF(t *testing.T) {
	f := smallFixture(t)
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}}
	webEv := f.evaluator(t, 64, buffer.NewLRU(), fullParams())
	web, err := webEv.Evaluate(WebLegend, q)
	if err != nil {
		t.Fatal(err)
	}
	dfEv := f.evaluator(t, 64, buffer.NewLRU(), fullParams())
	df, err := dfEv.Evaluate(DF, q)
	if err != nil {
		t.Fatal(err)
	}
	if web.PagesRead != df.PagesRead || len(web.Top) != len(df.Top) {
		t.Errorf("cold WebLegend should equal DF: reads %d/%d", web.PagesRead, df.PagesRead)
	}
	for i := range df.Top {
		if web.Top[i] != df.Top[i] {
			t.Fatal("cold WebLegend ranking differs from DF")
		}
	}
}

func TestWebLegendIgnoresUnbufferedTerms(t *testing.T) {
	f := smallFixture(t)
	ev := f.evaluator(t, 64, buffer.NewLRU(), fullParams())
	// Warm beta only.
	if _, err := ev.Evaluate(DF, Query{{Term: 1, Fqt: 1}}); err != nil {
		t.Fatal(err)
	}
	res, err := ev.Evaluate(WebLegend, Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var alphaSkipped, betaProcessed bool
	for _, tr := range res.Trace {
		if tr.Name == "alpha" && tr.Skipped && tr.PagesProcessed == 0 {
			alphaSkipped = true
		}
		if tr.Name == "beta" && tr.PagesProcessed > 0 {
			betaProcessed = true
		}
	}
	if !alphaSkipped || !betaProcessed {
		t.Errorf("WebLegend trace wrong: alphaSkipped=%v betaProcessed=%v", alphaSkipped, betaProcessed)
	}
	if res.PagesRead != 0 {
		t.Errorf("WebLegend read %d pages despite beta being fully buffered", res.PagesRead)
	}
	// One counted residency probe per query term, warm or cold.
	if res.SelectionInquiries != 2 {
		t.Errorf("warm WebLegend counted %d selection inquiries, want 2", res.SelectionInquiries)
	}
	cold, err := f.evaluator(t, 64, buffer.NewLRU(), fullParams()).Evaluate(WebLegend, Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if cold.SelectionInquiries != 3 {
		t.Errorf("cold WebLegend counted %d selection inquiries, want 3", cold.SelectionInquiries)
	}
	if WebLegend.String() != "WEB" {
		t.Error("WebLegend name")
	}
}

// TestBAFWorkBounds verifies the paper's §3.2.2 accounting: BAF makes
// exactly T(T+1)/2 buffer inquiries for a T-term query.
func TestBAFWorkBounds(t *testing.T) {
	f := smallFixture(t)
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 2}, {Term: 2, Fqt: 1}}
	T := len(q)
	ev := f.evaluator(t, 64, buffer.NewLRU(), Params{CAdd: 0.01, CIns: 0.1, TopN: 5})
	res, err := ev.Evaluate(BAF, q)
	if err != nil {
		t.Fatal(err)
	}
	want := T * (T + 1) / 2
	if res.SelectionInquiries != want {
		t.Errorf("selection inquiries = %d, want exactly %d", res.SelectionInquiries, want)
	}
}

// TestEvaluationSurvivesInjectedFaults: storage faults propagate as
// errors (never panics, never partial results) and evaluation works
// again once the fault clears.
func TestEvaluationSurvivesInjectedFaults(t *testing.T) {
	f := smallFixture(t)
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 1}}
	for _, algo := range []Algorithm{DF, BAF, WebLegend} {
		ev := f.evaluator(t, 4, buffer.NewRAP(), fullParams())
		f.faults(t, "transient:first=1") // every page's first read fails
		if _, err := ev.Evaluate(algo, q); err == nil {
			t.Errorf("%v: expected an error under fault injection", algo)
		}
		f.heal()
		res, err := ev.Evaluate(algo, q)
		if err != nil {
			t.Fatalf("%v: recovery failed: %v", algo, err)
		}
		if len(res.Top) == 0 {
			t.Errorf("%v: no results after recovery", algo)
		}
	}
}
