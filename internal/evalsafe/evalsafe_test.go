package evalsafe

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/rank"
	"bufir/internal/storage"
)

var allSchedules = []Schedule{TA, NRA, Maxscore}

type fixture struct {
	lists []postings.TermPostings
	ix    *postings.Index
	store *storage.Store
}

func build(t testing.TB, lists []postings.TermPostings, numDocs, pageSize int) *fixture {
	t.Helper()
	ix, pages, err := postings.Build(lists, numDocs, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{lists: lists, ix: ix, store: storage.NewStore(pages)}
}

func (f *fixture) pool(t testing.TB, pages int) buffer.Pool {
	t.Helper()
	return f.poolOver(t, pages, f.store)
}

// poolOver builds the serial (one-shard) LRU pool over any store.
func (f *fixture) poolOver(t testing.TB, pages int, store buffer.PageReader) buffer.Pool {
	t.Helper()
	return f.manager(t, pages, store, func(int) buffer.Policy { return buffer.NewLRU() })
}

// manager builds the serial pool over any store under any policy.
func (f *fixture) manager(t testing.TB, pages int, store buffer.PageReader, newPolicy func(int) buffer.Policy) *buffer.Manager {
	t.Helper()
	mgr, err := buffer.NewManager(pages, 1, store, f.ix, newPolicy)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// exhaustive computes the reference answer the way exhaustive DF does:
// canonical term order, contributions added from zero, rank.TopN.
func (f *fixture) exhaustive(q []QueryTerm, k int) []rank.ScoredDoc {
	ordered := append([]QueryTerm(nil), q...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0; j-- {
			a, b := ordered[j-1], ordered[j]
			ia, ib := f.ix.IDF(a.Term), f.ix.IDF(b.Term)
			if ia > ib || (ia == ib && a.Term < b.Term) {
				break
			}
			ordered[j-1], ordered[j] = b, a
		}
	}
	acc := make(map[postings.DocID]float64)
	for _, qt := range ordered {
		idf := f.ix.IDF(qt.Term)
		wqt := rank.QueryWeight(qt.Fqt, idf)
		for _, e := range f.lists[qt.Term].Entries {
			acc[e.Doc] += rank.DocWeight(e.Freq, idf) * wqt
		}
	}
	return rank.TopN(acc, f.ix.DocLen, k)
}

// skewed builds a fixture with one dominant document in the queried
// term and a long low-frequency tail whose documents carry large
// vector lengths from a second (unqueried) term — the shape where the
// unseen-document bound collapses quickly.
func skewed(t testing.TB) *fixture {
	a := postings.TermPostings{Name: "rare"}
	b := postings.TermPostings{Name: "ballast"}
	a.Entries = append(a.Entries, postings.Entry{Doc: 0, Freq: 50})
	for d := postings.DocID(1); d < 20; d++ {
		a.Entries = append(a.Entries, postings.Entry{Doc: d, Freq: 1})
		b.Entries = append(b.Entries, postings.Entry{Doc: d, Freq: 10})
	}
	return build(t, []postings.TermPostings{a, b}, 40, 2)
}

func TestScheduleString(t *testing.T) {
	for s, want := range map[Schedule]string{TA: "TA", NRA: "NRA", Maxscore: "MAXSCORE", Schedule(9): "Schedule(9)"} {
		if got := s.String(); got != want {
			t.Errorf("Schedule(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestValidation(t *testing.T) {
	f := skewed(t)
	pool := f.pool(t, 8)
	cases := []struct {
		name string
		q    []QueryTerm
		opts Options
	}{
		{"empty query", nil, Options{TopN: 10}},
		{"zero TopN", []QueryTerm{{Term: 0, Fqt: 1}}, Options{TopN: 0}},
		{"negative budget", []QueryTerm{{Term: 0, Fqt: 1}}, Options{TopN: 10, FaultBudget: -1}},
		{"term out of range", []QueryTerm{{Term: 99, Fqt: 1}}, Options{TopN: 10}},
		{"fqt < 1", []QueryTerm{{Term: 0, Fqt: 0}}, Options{TopN: 10}},
	}
	for _, tc := range cases {
		if _, err := Evaluate(context.Background(), f.ix, pool, tc.q, TA, tc.opts); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestAllSchedulesBitIdenticalToExhaustive(t *testing.T) {
	f := skewed(t)
	q := []QueryTerm{{Term: 0, Fqt: 2}, {Term: 1, Fqt: 1}}
	want := f.exhaustive(q, 10)
	for _, sched := range allSchedules {
		out, err := Evaluate(context.Background(), f.ix, f.pool(t, 4), q, sched, Options{TopN: 10})
		if err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		if len(out.Top) != len(want) {
			t.Fatalf("%v: %d results, want %d", sched, len(out.Top), len(want))
		}
		for i := range want {
			if out.Top[i] != want[i] {
				t.Errorf("%v pos %d: got %+v, want %+v (bit-identical)", sched, i, out.Top[i], want[i])
			}
		}
	}
}

// TestEarlyTermination: on the skewed fixture with k=1, the dominant
// document is provably final after a page or two — far before the
// 10-page list is exhausted — and the answer is still exact.
func TestEarlyTermination(t *testing.T) {
	f := skewed(t)
	q := []QueryTerm{{Term: 0, Fqt: 1}}
	want := f.exhaustive(q, 1)
	total := f.ix.Terms[0].NumPages
	for _, sched := range allSchedules {
		out, err := Evaluate(context.Background(), f.ix, f.pool(t, 4), q, sched, Options{TopN: 1})
		if err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		if !out.Terminated {
			t.Errorf("%v: did not terminate early", sched)
		}
		if out.PagesProcessed >= total {
			t.Errorf("%v: processed %d pages of a %d-page list", sched, out.PagesProcessed, total)
		}
		if len(out.Top) != 1 || out.Top[0] != want[0] {
			t.Errorf("%v: top = %+v, want %+v", sched, out.Top, want[0])
		}
	}
}

// TestMaxscoreSkipsLowSigmaTail: with a huge-idf list that settles
// the answer, maxscore needs the low-sigma list only long enough to
// complete the winner's score — its long tail goes unread.
func TestMaxscoreSkipsLowSigmaTail(t *testing.T) {
	rare := postings.TermPostings{Name: "rare", Entries: []postings.Entry{{Doc: 0, Freq: 90}}}
	common := postings.TermPostings{Name: "common"}
	ballast := postings.TermPostings{Name: "ballast"}
	for d := postings.DocID(1); d < 30; d++ {
		common.Entries = append(common.Entries, postings.Entry{Doc: d, Freq: 1})
		ballast.Entries = append(ballast.Entries, postings.Entry{Doc: d, Freq: 40})
	}
	// Doc 0 also appears once in common so it is complete the moment
	// common's head page is read — and it never needs to be, because
	// rare finishing makes it complete too.
	common.Entries = append([]postings.Entry{{Doc: 0, Freq: 2}}, common.Entries...)
	f := build(t, []postings.TermPostings{rare, common, ballast}, 64, 2)

	q := []QueryTerm{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}}
	want := f.exhaustive(q, 1)
	out, err := Evaluate(context.Background(), f.ix, f.pool(t, 4), q, Maxscore, Options{TopN: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Top) != 1 || out.Top[0] != want[0] {
		t.Fatalf("top = %+v, want %+v", out.Top, want[0])
	}
	var commonStats *TermStats
	for i := range out.PerTerm {
		if out.PerTerm[i].Term == 1 {
			commonStats = &out.PerTerm[i]
		}
	}
	if commonStats == nil {
		t.Fatal("no stats for the common term")
	}
	// One page completes doc 0 (it sits in the frequency-sorted head);
	// everything past that is the saving.
	if commonStats.PagesProcessed > 2 {
		t.Errorf("maxscore read %d of the low-sigma list's %d pages",
			commonStats.PagesProcessed, commonStats.ListPages)
	}
	if commonStats.Exhausted {
		t.Error("maxscore exhausted the low-sigma list")
	}
	if !out.Terminated {
		t.Error("expected early termination")
	}
}

// TestNeverMorePagesThanExhaustive: across random fixtures, queries
// and schedules, a safe method processes at most the pages an
// exhaustive scan of the query lists would.
func TestNeverMorePagesThanExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(271828))
	for iter := 0; iter < 60; iter++ {
		f := randFixture(t, r)
		q := randQuery(r, len(f.lists))
		k := 1 + r.Intn(10)
		want := f.exhaustive(q, k)
		exhaustivePages := 0
		for _, qt := range q {
			exhaustivePages += f.ix.Terms[qt.Term].NumPages
		}
		for _, sched := range allSchedules {
			bufPages := 1 + r.Intn(f.ix.NumPagesTotal+2)
			out, err := Evaluate(context.Background(), f.ix, f.pool(t, bufPages), q, sched, Options{TopN: k})
			if err != nil {
				t.Fatalf("iter %d %v: %v", iter, sched, err)
			}
			if out.PagesProcessed > exhaustivePages {
				t.Fatalf("iter %d %v: processed %d pages, exhaustive needs %d",
					iter, sched, out.PagesProcessed, exhaustivePages)
			}
			if len(out.Top) != len(want) {
				t.Fatalf("iter %d %v: %d results, want %d", iter, sched, len(out.Top), len(want))
			}
			for i := range want {
				if out.Top[i] != want[i] {
					t.Fatalf("iter %d %v pos %d: got %+v, want %+v", iter, sched, i, out.Top[i], want[i])
				}
			}
		}
	}
}

func randFixture(t testing.TB, r *rand.Rand) *fixture {
	numDocs := 8 + r.Intn(33)
	numTerms := 3 + r.Intn(5)
	lists := make([]postings.TermPostings, numTerms)
	for tm := 0; tm < numTerms; tm++ {
		df := 1 + r.Intn(numDocs)
		perm := r.Perm(numDocs)[:df]
		entries := make([]postings.Entry, df)
		for i, d := range perm {
			entries[i] = postings.Entry{Doc: postings.DocID(d), Freq: int32(1 + r.Intn(30))}
		}
		lists[tm] = postings.TermPostings{Name: string(rune('a' + tm)), Entries: entries}
	}
	return build(t, lists, numDocs, 1+r.Intn(4))
}

func randQuery(r *rand.Rand, numTerms int) []QueryTerm {
	n := 1 + r.Intn(numTerms)
	perm := r.Perm(numTerms)[:n]
	q := make([]QueryTerm, n)
	for i, tm := range perm {
		q[i] = QueryTerm{Term: postings.TermID(tm), Fqt: 1 + r.Intn(3)}
	}
	return q
}

// TestFaultBudgetDegrades: with faults injected and budget to absorb
// them, the evaluation completes Degraded with a legal ranking; with
// no budget it errors.
func TestFaultBudgetDegrades(t *testing.T) {
	f := skewed(t)
	q := []QueryTerm{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}}
	// The first read of term 0's first page fails, then the page heals:
	// every schedule opens every list, so every schedule meets it.
	flaky := func() buffer.Pool {
		fs, err := storage.NewFaultStore(f.store, 1, []storage.FaultRule{
			{Kind: storage.FaultTransient, FirstPage: int(f.ix.PageOf(0, 0)), LastPage: int(f.ix.PageOf(0, 0)), First: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f.poolOver(t, 4, fs)
	}
	for _, sched := range allSchedules {
		out, err := Evaluate(context.Background(), f.ix, flaky(), q, sched, Options{TopN: 5, FaultBudget: 10})
		if err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		if out.Faults == 0 || !out.Degraded {
			t.Errorf("%v: no faults recorded (budget run)", sched)
		}
		assertLegalRanking(t, out.Top, 5)

		_, err = Evaluate(context.Background(), f.ix, flaky(), q, sched, Options{TopN: 5})
		if err == nil {
			t.Errorf("%v: zero budget absorbed a fault", sched)
		}
	}
}

// assertLegalRanking checks structural sanity of a possibly degraded
// or partial answer: at most k entries, sorted by rank.Before, no
// duplicate documents.
func assertLegalRanking(t *testing.T, top []rank.ScoredDoc, k int) {
	t.Helper()
	if len(top) > k {
		t.Fatalf("%d results for k=%d", len(top), k)
	}
	seen := make(map[postings.DocID]bool)
	for i, sd := range top {
		if seen[sd.Doc] {
			t.Fatalf("duplicate doc %d", sd.Doc)
		}
		seen[sd.Doc] = true
		if i > 0 && rank.Before(sd, top[i-1]) {
			t.Fatalf("ranking out of order at %d: %+v before %+v", i, sd, top[i-1])
		}
	}
}

// cancelPool cancels the context after n fetches.
type cancelPool struct {
	buffer.Pool
	cancel context.CancelFunc
	n      int
}

func (p *cancelPool) FetchContext(ctx context.Context, id postings.PageID) (*buffer.Frame, bool, error) {
	if p.n == 0 {
		p.cancel()
	}
	p.n--
	return p.Pool.FetchContext(ctx, id)
}

func TestCancellationReturnsPartial(t *testing.T) {
	f := skewed(t)
	q := []QueryTerm{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}}
	for _, sched := range allSchedules {
		ctx, cancel := context.WithCancel(context.Background())
		pool := &cancelPool{Pool: f.pool(t, 4), cancel: cancel, n: 2}
		out, err := Evaluate(ctx, f.ix, pool, q, sched, Options{TopN: 5})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", sched, err)
		}
		if out == nil || !out.Partial {
			t.Fatalf("%v: no partial outcome on cancellation", sched)
		}
		assertLegalRanking(t, out.Top, 5)
	}
}

// TestSelectionInquiriesCounted: buffer-aware scheduling must account
// its residency probes, like BAF.
func TestSelectionInquiriesCounted(t *testing.T) {
	f := skewed(t)
	q := []QueryTerm{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}}
	for _, sched := range allSchedules {
		out, err := Evaluate(context.Background(), f.ix, f.pool(t, 4), q, sched, Options{TopN: 5})
		if err != nil {
			t.Fatal(err)
		}
		if out.SelectionInquiries == 0 {
			t.Errorf("%v: no selection inquiries recorded", sched)
		}
	}
}

// TestExhaustionEqualsExhaustive: with k larger than the candidate
// set, no early stop is possible; the run must exhaust every list and
// report DF's exact Smax.
func TestExhaustionEqualsExhaustive(t *testing.T) {
	f := skewed(t)
	q := []QueryTerm{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}}
	want := f.exhaustive(q, 50)
	total := f.ix.Terms[0].NumPages + f.ix.Terms[1].NumPages
	for _, sched := range allSchedules {
		out, err := Evaluate(context.Background(), f.ix, f.pool(t, 4), q, sched, Options{TopN: 50})
		if err != nil {
			t.Fatal(err)
		}
		if out.Terminated {
			t.Errorf("%v: claimed early termination with k > candidates", sched)
		}
		if out.PagesProcessed != total {
			t.Errorf("%v: processed %d pages, want %d", sched, out.PagesProcessed, total)
		}
		if len(out.Top) != len(want) {
			t.Fatalf("%v: %d results, want %d", sched, len(out.Top), len(want))
		}
		for i := range want {
			if out.Top[i] != want[i] {
				t.Errorf("%v pos %d: got %+v want %+v", sched, i, out.Top[i], want[i])
			}
		}
	}
}
