// Tests of exact evaluation. The metamorphic exactness suite: over
// random corpora at several scales, buffer sizes spanning under- to
// over-provisioned pools, the product's replacement policies, fault
// schedules and cancellation interleavings, MAXSCORE must return the
// bit-identical top-k of an exhaustive (unfiltered) DF evaluation —
// same documents, same float64 scores, same tie order — at exactly its
// cost. Faulted and canceled runs cannot promise exactness (neither can
// DF's); there the contract is a legal degraded/partial ranking, and
// exactness must return the moment the store heals. The unit tests
// below it pin the shared fault/cancellation behaviour. Runs under
// -race in the ranksafe-exactness gate.
package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/rank"
	"bufir/internal/storage"
)

// safeAlgos is the exact method, held to exhaustive evaluation by every
// exactness test.
var safeAlgos = []Algorithm{MAXSCORE}

// assertTopIdentical compares only the ranked answer.
func assertTopIdentical(t *testing.T, label string, got, want []rank.ScoredDoc) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
			t.Fatalf("%s pos %d: got %+v, want %+v (bit-identical)", label, i, got[i], want[i])
		}
	}
}

// exhaustiveRef evaluates q exhaustively (CAdd=CIns=0 DF) on a fresh
// ample pool — the reference every exact evaluation must match.
func exhaustiveRef(t *testing.T, f *fixture, topN int, q Query) *Result {
	t.Helper()
	ev := f.evaluator(t, f.ix.NumPagesTotal+2, buffer.NewLRU(), Params{TopN: topN})
	res, err := ev.Evaluate(DF, q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// randIndexScaled builds a random fixture at the given document scale
// (randIndex's shape with more room).
func randIndexScaled(t *testing.T, r *rand.Rand, minDocs, docSpread int) *fixture {
	t.Helper()
	numDocs := minDocs + r.Intn(docSpread)
	numTerms := 5 + r.Intn(6)
	lists := make([]postings.TermPostings, numTerms)
	for tm := 0; tm < numTerms; tm++ {
		df := 1 + r.Intn(numDocs)
		perm := r.Perm(numDocs)[:df]
		entries := make([]postings.Entry, df)
		for i, d := range perm {
			entries[i] = postings.Entry{Doc: postings.DocID(d), Freq: int32(1 + r.Intn(20))}
		}
		lists[tm] = postings.TermPostings{Name: string(rune('a' + tm)), Entries: entries}
	}
	return newFixture(t, lists, numDocs, 1+r.Intn(4))
}

func randSafeQuery(r *rand.Rand, numTerms int) Query {
	n := 1 + r.Intn(numTerms)
	perm := r.Perm(numTerms)[:n]
	q := make(Query, n)
	for i, tm := range perm {
		q[i] = QueryTerm{Term: postings.TermID(tm), Fqt: 1 + r.Intn(3)}
	}
	return q
}

// TestMetamorphicSafeExactness is the headline sweep: for every
// policy, random corpora at two scales × random buffer sizes × random
// queries, the exact method's answer, accumulator count and S_max are
// bit-identical to the exhaustive reference, at the same page and entry
// cost, whatever the pool holds.
func TestMetamorphicSafeExactness(t *testing.T) {
	const perPolicy = 40
	// The product's policies: exactness must not depend on what the pool
	// evicts (the experiments hold it to the extension policies too).
	for _, name := range buffer.PolicyNames {
		mk, _ := buffer.PolicyFactory(name)
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(2009 + int64(len(name))))
			for i := 0; i < perPolicy; i++ {
				var f *fixture
				if i%4 == 3 {
					f = randIndexScaled(t, r, 80, 120) // medium scale
				} else {
					f = randIndexScaled(t, r, 8, 33) // unit scale
				}
				q := randSafeQuery(r, len(f.lists))
				k := 1 + r.Intn(10)
				bufPages := 1 + r.Intn(f.ix.NumPagesTotal+2)
				want := exhaustiveRef(t, f, k, q)
				for _, algo := range safeAlgos {
					ev := f.evaluator(t, bufPages, mk(bufPages), Params{TopN: k})
					res, err := ev.Evaluate(algo, q)
					if err != nil {
						t.Fatalf("iter %d %v: %v", i, algo, err)
					}
					assertTopIdentical(t, algo.String(), res.Top, want.Top)
					if res.PagesProcessed != want.PagesProcessed || res.EntriesProcessed != want.EntriesProcessed ||
						res.Accumulators != want.Accumulators || res.Smax != want.Smax {
						t.Fatalf("iter %d %v: %d pages, %d entries, %d accumulators, S_max %v; exhaustive %d, %d, %d, %v",
							i, algo, res.PagesProcessed, res.EntriesProcessed, res.Accumulators, res.Smax,
							want.PagesProcessed, want.EntriesProcessed, want.Accumulators, want.Smax)
					}
					if res.Partial || res.Degraded {
						t.Fatalf("iter %d %v: clean run flagged Partial=%v Degraded=%v",
							i, algo, res.Partial, res.Degraded)
					}
					for _, tt := range res.Trace {
						if math.IsNaN(tt.IDF) || math.IsInf(tt.IDF, 0) {
							t.Fatalf("iter %d %v: non-finite idf in trace", i, algo)
						}
					}
				}
			}
		})
	}
}

// TestMetamorphicSafeFaultInterleavings: under an injected fault
// schedule absorbed by the budget, an exact evaluation must complete
// with a legal degraded ranking; once the store heals the very next
// evaluation is exact again.
func TestMetamorphicSafeFaultInterleavings(t *testing.T) {
	r := rand.New(rand.NewSource(8087))
	for i := 0; i < 36; i++ {
		f := randIndexScaled(t, r, 8, 33)
		q := randSafeQuery(r, len(f.lists))
		k := 1 + r.Intn(8)
		mk, _ := buffer.PolicyFactory(buffer.PolicyNames[i%len(buffer.PolicyNames)])
		bufPages := 1 + r.Intn(f.ix.NumPagesTotal+2)
		algo := safeAlgos[i%len(safeAlgos)]

		p := Params{TopN: k, FaultBudget: 100}
		ev := f.evaluator(t, bufPages, mk(bufPages), p)
		// One read in two to one in five fails, by seeded coin.
		f.faults(t, fmt.Sprintf("transient:prob=%.2f", 1/float64(2+r.Intn(4))))
		res, err := ev.Evaluate(algo, q)
		f.heal()
		if err != nil {
			t.Fatalf("iter %d %v: budget run errored: %v", i, algo, err)
		}
		assertLegalRanking(t, res.Top, k)
		if res.Faults > 0 && !res.Degraded {
			t.Fatalf("iter %d %v: %d faults but not Degraded", i, algo, res.Faults)
		}

		// Healed store: exactness must return immediately, on the same
		// evaluator and warmed pool.
		want := exhaustiveRef(t, f, k, q)
		res, err = ev.Evaluate(algo, q)
		if err != nil {
			t.Fatalf("iter %d %v: healed run: %v", i, algo, err)
		}
		if res.Degraded {
			t.Fatalf("iter %d %v: healed run degraded", i, algo)
		}
		assertTopIdentical(t, "healed", res.Top, want.Top)

		// Zero budget: the first fault must fail the query with no
		// answer, only the cost of what it read.
		ev0 := f.evaluator(t, bufPages, mk(bufPages), Params{TopN: k})
		f.faults(t, "transient") // every read fails
		res0, err := ev0.Evaluate(algo, q)
		f.heal()
		if err == nil {
			t.Fatalf("iter %d %v: zero budget absorbed a fault", i, algo)
		}
		if res0 == nil || len(res0.Top) != 0 || res0.Partial {
			t.Fatalf("iter %d %v: non-context error returned %+v, want a cost-only result", i, algo, res0)
		}
	}
}

// TestMetamorphicSafeCancellation: an exact evaluation canceled mid-scan
// returns the anytime partial ranking alongside context.Canceled, with
// no frames left pinned, and the retry on a live context is exact.
func TestMetamorphicSafeCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(60901))
	for i := 0; i < 36; i++ {
		f := randIndexScaled(t, r, 8, 33)
		q := randSafeQuery(r, len(f.lists))
		k := 1 + r.Intn(8)
		mk, _ := buffer.PolicyFactory(buffer.PolicyNames[i%len(buffer.PolicyNames)])
		algo := safeAlgos[i%len(safeAlgos)]
		mgr := f.newPool(t, 1+r.Intn(f.ix.NumPagesTotal+2), mk(f.ix.NumPagesTotal+2))
		p := Params{TopN: k}

		ctx, cancel := context.WithCancel(context.Background())
		pool := &cancelAfterPool{Pool: mgr, cancel: cancel, n: r.Intn(3)}
		evC, err := NewEvaluator(f.ix, pool, f.conv, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := evC.EvaluateContext(ctx, algo, q)
		cancel()
		if err == nil {
			// The cancel landed after the evaluation finished — then the
			// answer must already be the exact one.
			assertTopIdentical(t, "finished-before-cancel", res.Top, exhaustiveRef(t, f, k, q).Top)
		} else {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iter %d %v: %v", i, algo, err)
			}
			if res == nil || !res.Partial {
				t.Fatalf("iter %d %v: no partial result on cancellation", i, algo)
			}
			assertLegalRanking(t, res.Top, k)
		}
		if n := mgr.PinnedFrames(); n != 0 {
			t.Fatalf("iter %d %v: %d frames pinned after cancel", i, algo, n)
		}

		// Retry on a healthy context, same pool: exact.
		ev, err := NewEvaluator(f.ix, mgr, f.conv, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.Evaluate(algo, q)
		if err != nil {
			t.Fatalf("iter %d %v retry: %v", i, algo, err)
		}
		assertTopIdentical(t, "retry", got.Top, exhaustiveRef(t, f, k, q).Top)
	}
}

// assertLegalRanking checks the structural contract of a degraded
// or partial answer: at most k entries, rank.Before order, no
// duplicate documents, finite scores.
func assertLegalRanking(t *testing.T, top []rank.ScoredDoc, k int) {
	t.Helper()
	if len(top) > k {
		t.Fatalf("%d results for k=%d", len(top), k)
	}
	seen := make(map[postings.DocID]bool, len(top))
	for i, sd := range top {
		if seen[sd.Doc] {
			t.Fatalf("duplicate doc %d", sd.Doc)
		}
		seen[sd.Doc] = true
		if math.IsNaN(sd.Score) || math.IsInf(sd.Score, 0) {
			t.Fatalf("non-finite score %v for doc %d", sd.Score, sd.Doc)
		}
		if i > 0 && rank.Before(sd, top[i-1]) {
			t.Fatalf("ranking out of order at %d", i)
		}
	}
}

// TestScheduleString pins the name of the exact method and the
// fallback name of an unknown value.
func TestScheduleString(t *testing.T) {
	for a, want := range map[Algorithm]string{MAXSCORE: "MAXSCORE", Algorithm(4): "Algorithm(4)", Algorithm(9): "Algorithm(9)"} {
		if got := a.String(); got != want {
			t.Errorf("Algorithm(%d).String() = %q, want %q", int(a), got, want)
		}
	}
}

// TestValidation: an exact evaluation is refused for a bad query or
// bad parameters.
func TestValidation(t *testing.T) {
	f := skewed(t)
	cases := []struct {
		name string
		q    Query
		p    Params
	}{
		{"empty query", nil, Params{TopN: 10}},
		{"zero TopN", Query{{Term: 0, Fqt: 1}}, Params{TopN: 0}},
		{"negative budget", Query{{Term: 0, Fqt: 1}}, Params{TopN: 10, FaultBudget: -1}},
		{"term out of range", Query{{Term: 99, Fqt: 1}}, Params{TopN: 10}},
		{"fqt < 1", Query{{Term: 0, Fqt: 0}}, Params{TopN: 10}},
	}
	for _, tc := range cases {
		ev, err := NewEvaluator(f.ix, f.newPool(t, 8, buffer.NewLRU()), f.conv, tc.p)
		if err == nil {
			_, err = ev.Evaluate(MAXSCORE, tc.q)
		}
		if err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestSafeAlgorithmStrings pins the String name metric labels use, and
// that MAXSCORE alone is rank-safe.
func TestSafeAlgorithmStrings(t *testing.T) {
	want := map[Algorithm]string{MAXSCORE: "MAXSCORE"}
	for algo, name := range want {
		if algo.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(algo), algo.String(), name)
		}
		if !algo.Safe() {
			t.Errorf("%s.Safe() = false", name)
		}
	}
	for _, algo := range []Algorithm{DF, BAF, WebLegend} {
		if algo.Safe() {
			t.Errorf("%s.Safe() = true", algo)
		}
	}
}

// skewed builds a fixture with one dominant document in the queried
// term and a long low-frequency tail whose documents carry large
// vector lengths from a second term.
func skewed(t testing.TB) *fixture {
	a := postings.TermPostings{Name: "rare"}
	b := postings.TermPostings{Name: "ballast"}
	a.Entries = append(a.Entries, postings.Entry{Doc: 0, Freq: 50})
	for d := postings.DocID(1); d < 20; d++ {
		a.Entries = append(a.Entries, postings.Entry{Doc: d, Freq: 1})
		b.Entries = append(b.Entries, postings.Entry{Doc: d, Freq: 10})
	}
	return newFixture(t, []postings.TermPostings{a, b}, 40, 2)
}

// randFixture is a random unit-scale collection of 3–7 lists.
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
	return newFixture(t, lists, numDocs, 1+r.Intn(4))
}

func TestAllSchedulesBitIdenticalToExhaustive(t *testing.T) {
	f := skewed(t)
	q := Query{{Term: 0, Fqt: 2}, {Term: 1, Fqt: 1}}
	want := f.bruteForce(q, 10)
	for _, algo := range safeAlgos {
		res, err := f.evaluator(t, 4, buffer.NewLRU(), Params{TopN: 10}).Evaluate(algo, q)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		assertTopIdentical(t, algo.String(), res.Top, want)
	}
}

// TestNeverMorePagesThanExhaustive: across random fixtures, queries
// and pool sizes, the exact method processes at most the pages an
// exhaustive scan of the query lists would.
func TestNeverMorePagesThanExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(271828))
	for iter := 0; iter < 60; iter++ {
		f := randFixture(t, r)
		q := randSafeQuery(r, len(f.lists))
		k := 1 + r.Intn(10)
		want := f.bruteForce(q, k)
		exhaustivePages := 0
		for _, qt := range q {
			exhaustivePages += f.ix.Terms[qt.Term].NumPages
		}
		for _, algo := range safeAlgos {
			bufPages := 1 + r.Intn(f.ix.NumPagesTotal+2)
			res, err := f.evaluator(t, bufPages, buffer.NewLRU(), Params{TopN: k}).Evaluate(algo, q)
			if err != nil {
				t.Fatalf("iter %d %v: %v", iter, algo, err)
			}
			if res.PagesProcessed > exhaustivePages {
				t.Fatalf("iter %d %v: processed %d pages, exhaustive needs %d",
					iter, algo, res.PagesProcessed, exhaustivePages)
			}
			assertTopIdentical(t, fmt.Sprintf("iter %d %v", iter, algo), res.Top, want)
		}
	}
}

// TestFaultOnFirstPageEveryMethod: a list whose first page faults is
// the same trace row under every method — Faulted, not Skipped (it was
// opened) — and costs one unit of budget, leaving a Degraded answer;
// with no budget every method fails with the same error.
func TestFaultOnFirstPageEveryMethod(t *testing.T) {
	f := smallFixture(t)
	beta := f.ix.Terms[1]
	spec := storage.FormatFaultSchedule([]storage.FaultRule{{
		Kind: storage.FaultPermanent, FirstPage: int(beta.FirstPage), LastPage: int(beta.FirstPage), Prob: 1,
	}})
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 1}}
	const wantErr = `eval: term "beta" page 0: `
	for _, algo := range []Algorithm{DF, BAF, MAXSCORE} {
		p := fullParams()
		p.FaultBudget = 1
		res, err := faultEvaluator(t, f, spec, p).Evaluate(algo, q)
		f.heal()
		if err != nil {
			t.Fatalf("%v: budget run: %v", algo, err)
		}
		if res.Faults != 1 || !res.Degraded {
			t.Errorf("%v: Faults=%d Degraded=%v, want 1/true", algo, res.Faults, res.Degraded)
		}
		var row *TermTrace
		for i := range res.Trace {
			if res.Trace[i].Term == 1 {
				row = &res.Trace[i]
			}
		}
		if row == nil || !row.Faulted || row.Skipped || row.PagesProcessed != 0 {
			t.Errorf("%v: beta's row = %+v, want Faulted, not Skipped, no pages", algo, row)
		}
		assertLegalRanking(t, res.Top, p.TopN)

		_, err = faultEvaluator(t, f, spec, fullParams()).Evaluate(algo, q)
		f.heal()
		if err == nil || !strings.HasPrefix(err.Error(), wantErr) || !errors.Is(err, storage.ErrInjectedFault) {
			t.Errorf("%v: zero budget: err = %v, want prefix %q wrapping the injected fault", algo, err, wantErr)
		}
	}
}

func TestCancellationReturnsPartial(t *testing.T) {
	f := skewed(t)
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}}
	for _, algo := range safeAlgos {
		ctx, cancel := context.WithCancel(context.Background())
		pool := &cancelAfterPool{Pool: f.newPool(t, 4, buffer.NewLRU()), cancel: cancel, n: 2}
		ev, err := NewEvaluator(f.ix, pool, f.conv, Params{TopN: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ev.EvaluateContext(ctx, algo, q)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", algo, err)
		}
		if res == nil || !res.Partial {
			t.Fatalf("%v: no partial result on cancellation", algo)
		}
		assertLegalRanking(t, res.Top, 5)
	}
}

// TestSelectionInquiriesCounted: the buffer-aware schedules account
// their residency probes; DF and the exact method make none.
func TestSelectionInquiriesCounted(t *testing.T) {
	f := skewed(t)
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}}
	for _, algo := range []Algorithm{DF, BAF, WebLegend, MAXSCORE} {
		res, err := f.evaluator(t, 4, buffer.NewLRU(), Params{TopN: 5}).Evaluate(algo, q)
		if err != nil {
			t.Fatal(err)
		}
		if probes := algo == BAF || algo == WebLegend; (res.SelectionInquiries > 0) != probes {
			t.Errorf("%v: %d selection inquiries recorded", algo, res.SelectionInquiries)
		}
	}
}

// TestExhaustionEqualsExhaustive: with k larger than the candidate
// set, the run exhausts every list and reports DF's exact Smax.
func TestExhaustionEqualsExhaustive(t *testing.T) {
	f := skewed(t)
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}}
	want := exhaustiveRef(t, f, 50, q)
	for _, algo := range safeAlgos {
		res, err := f.evaluator(t, 4, buffer.NewLRU(), Params{TopN: 50}).Evaluate(algo, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.PagesProcessed != want.PagesProcessed {
			t.Errorf("%v: processed %d pages, want %d", algo, res.PagesProcessed, want.PagesProcessed)
		}
		if res.Smax != want.Smax {
			t.Errorf("%v: Smax %v, want DF's %v", algo, res.Smax, want.Smax)
		}
		assertTopIdentical(t, algo.String(), res.Top, want.Top)
	}
}

// TestDuplicateEntriesAccumulate: a malformed list with two entries
// for one document accumulates like DF's sequential scan, also when the
// second entry is pages after the first.
func TestDuplicateEntriesAccumulate(t *testing.T) {
	// Doc 0 appears twice in each list; with 2-entry pages the second
	// appearance is pages after the first.
	a := postings.TermPostings{Name: "a", Entries: []postings.Entry{
		{Doc: 0, Freq: 9}, {Doc: 1, Freq: 8}, {Doc: 2, Freq: 7}, {Doc: 3, Freq: 6},
		{Doc: 4, Freq: 5}, {Doc: 0, Freq: 4}, {Doc: 5, Freq: 3}, {Doc: 6, Freq: 2},
	}}
	b := postings.TermPostings{Name: "b", Entries: []postings.Entry{
		{Doc: 3, Freq: 9}, {Doc: 0, Freq: 8}, {Doc: 6, Freq: 7}, {Doc: 0, Freq: 6},
		{Doc: 2, Freq: 5}, {Doc: 7, Freq: 4},
	}}
	f := newFixture(t, []postings.TermPostings{a, b}, 12, 2)
	for _, q := range []Query{
		{{Term: 0, Fqt: 1}},
		{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 2}},
	} {
		want := f.bruteForce(q, 12)
		for _, algo := range safeAlgos {
			res, err := f.evaluator(t, 4, buffer.NewLRU(), Params{TopN: 12}).Evaluate(algo, q)
			if err != nil {
				t.Fatal(err)
			}
			assertTopIdentical(t, fmt.Sprintf("%d lists %v", len(q), algo), res.Top, want)
		}
	}
}
