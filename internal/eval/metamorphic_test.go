// Metamorphic exactness harness for refinement over a warm pool: over
// random indexes, tunings, pool sizes, policies and refinement
// schedules, each step is evaluated afresh on the pool the previous
// steps left behind, and must be bit-identical to a cold evaluation of
// the same query on a fresh pool — same documents, bit-equal scores,
// same accumulator count, bit-equal S_max — processing the same pages
// and reading no more of them. DF's round order is a function of the
// query and the index alone, so what the pool holds may change the
// reads, never the answer. The relation is checked under fault and
// cancellation interleavings too: a degraded or canceled step leaves
// the pool fit to answer the next one exactly.
package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/postings"
)

// metaPolicies are the three replacement policies every schedule runs
// under.
var metaPolicies = []struct {
	name string
	mk   func() buffer.Policy
}{
	{"LRU", func() buffer.Policy { return buffer.NewLRU() }},
	{"MRU", func() buffer.Policy { return buffer.NewMRU() }},
	{"RAP", func() buffer.Policy { return buffer.NewRAP() }},
}

// randIndex builds a random fixture: 5–10 terms over 8–40 documents,
// 1–4 entries per page so multi-page lists are common.
func randIndex(t *testing.T, r *rand.Rand) *fixture {
	t.Helper()
	numDocs := 8 + r.Intn(33)
	numTerms := 5 + r.Intn(6)
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
	return newFixture(t, lists, numDocs, 1+r.Intn(4))
}

// randParams picks a tuning: mostly filtered (the interesting case —
// thresholds derive from the running S_max), sometimes exhaustive.
func randParams(r *rand.Rand) Params {
	p := Params{TopN: 5 + r.Intn(10)}
	if r.Intn(4) > 0 {
		p.CAdd = []float64{0.002, 0.005, 0.02}[r.Intn(3)]
		p.CIns = p.CAdd * (2 + float64(r.Intn(20)))
	}
	if r.Intn(5) == 0 {
		p.ForceFirstPage = true
	}
	return p
}

// addOnlySchedule generates an initial query plus ADD-ONLY steps:
// each step adds 1–3 unseen terms and sometimes raises an existing
// term's frequency. Returned queries are cumulative.
func addOnlySchedule(r *rand.Rand, numTerms, steps int) []Query {
	perm := r.Perm(numTerms)
	next := 0
	take := func(n int) []int {
		if next+n > len(perm) {
			n = len(perm) - next
		}
		out := perm[next : next+n]
		next += n
		return out
	}
	cur := Query{}
	for _, tm := range take(1 + r.Intn(2)) {
		cur = append(cur, QueryTerm{Term: postings.TermID(tm), Fqt: 1 + r.Intn(3)})
	}
	out := []Query{append(Query{}, cur...)}
	for s := 0; s < steps; s++ {
		for _, tm := range take(1 + r.Intn(3)) {
			cur = append(cur, QueryTerm{Term: postings.TermID(tm), Fqt: 1 + r.Intn(3)})
		}
		if len(cur) > 0 && r.Intn(3) == 0 {
			cur[r.Intn(len(cur))].Fqt += 1 + r.Intn(2)
		}
		out = append(out, append(Query{}, cur...))
	}
	return out
}

// assertBitIdentical fails unless a and b agree exactly — same docs,
// bit-equal scores, same accumulator count, bit-equal S_max: not
// approximately equal, equal.
func assertBitIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Top) != len(want.Top) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Top), len(want.Top))
	}
	for i := range want.Top {
		if got.Top[i].Doc != want.Top[i].Doc || got.Top[i].Score != want.Top[i].Score {
			t.Fatalf("%s pos %d: got %+v, want %+v (bit-identical)", label, i, got.Top[i], want.Top[i])
		}
	}
	if got.Accumulators != want.Accumulators {
		t.Fatalf("%s: Accumulators = %d, want %d", label, got.Accumulators, want.Accumulators)
	}
	if got.Smax != want.Smax {
		t.Fatalf("%s: Smax = %v, want %v (bit-identical)", label, got.Smax, want.Smax)
	}
}

// coldEval evaluates q on a fresh evaluator over a fresh ample pool —
// the reference every warm-pool step must match bit for bit. With a
// fresh pool every processed page is a miss, so its PagesRead is the
// whole page cost of the query.
func coldEval(t *testing.T, f *fixture, p Params, q Query) *Result {
	t.Helper()
	ev := f.evaluator(t, f.ix.NumPagesTotal+2, buffer.NewLRU(), p)
	res, err := ev.Evaluate(DF, q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runSchedule drives one schedule through one evaluator over one pool,
// asserting every step bit-identical to a cold evaluation of the same
// cumulative query, over the same pages, reading no more of them.
// Returns the pages the steps found resident, so callers can assert
// the pool carried something from step to step at all.
func runSchedule(t *testing.T, f *fixture, p Params, mkPol func() buffer.Policy, bufPages int, qs []Query) int {
	t.Helper()
	ev := f.evaluator(t, bufPages, mkPol(), p)
	hits := 0
	for step, q := range qs {
		res, err := ev.Evaluate(DF, q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		cold := coldEval(t, f, p, q)
		assertBitIdentical(t, "step", res, cold)
		// Cold on a fresh pool misses every processed page, and a
		// query never processes a page twice, so cold PagesRead is
		// exactly the full processing cost; a warm step processes the
		// same pages and finds some of them resident.
		if res.PagesProcessed != cold.PagesProcessed {
			t.Fatalf("step %d: warm step processed %d pages, cold %d",
				step, res.PagesProcessed, cold.PagesProcessed)
		}
		if res.PagesRead > cold.PagesRead {
			t.Fatalf("step %d: warm step read %d pages, cold read %d",
				step, res.PagesRead, cold.PagesRead)
		}
		hits += res.PagesProcessed - res.PagesRead
	}
	return hits
}

// TestMetamorphicAddOnlySchedules is the headline harness: 200 random
// ADD-ONLY schedules per replacement policy (600 total), each 3–4
// cumulative queries, every step checked bit-identical to cold.
func TestMetamorphicAddOnlySchedules(t *testing.T) {
	const schedulesPerPolicy = 200
	for _, pol := range metaPolicies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1998 + int64(len(pol.name))))
			hits := 0
			for i := 0; i < schedulesPerPolicy; i++ {
				f := randIndex(t, r)
				p := randParams(r)
				qs := addOnlySchedule(r, len(f.lists), 2+r.Intn(2))
				bufPages := 1 + r.Intn(f.ix.NumPagesTotal+2)
				hits += runSchedule(t, f, p, pol.mk, bufPages, qs)
			}
			if hits == 0 {
				t.Fatal("no step ever found a page resident — the pool never carried anything")
			}
		})
	}
}

// TestMetamorphicAddDropSchedules runs schedules with DROP steps: a
// dropped term's pages stay in the pool (and RAP values them at zero),
// and every step is still exact.
func TestMetamorphicAddDropSchedules(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 100; i++ {
		f := randIndex(t, r)
		p := randParams(r)
		qs := addOnlySchedule(r, len(f.lists), 2)
		// Mutate the tail into drop steps: each drops one random term
		// of its predecessor (keeping at least one).
		for s := 1; s < len(qs); s++ {
			if r.Intn(2) == 0 && len(qs[s-1]) > 1 {
				prev := qs[s-1]
				drop := r.Intn(len(prev))
				q := make(Query, 0, len(prev)-1)
				for j, qt := range prev {
					if j != drop {
						q = append(q, qt)
					}
				}
				qs[s] = q
			}
		}
		pol := metaPolicies[i%len(metaPolicies)]
		bufPages := 1 + r.Intn(f.ix.NumPagesTotal+2)
		runSchedule(t, f, p, pol.mk, bufPages, qs)
	}
}

// TestMetamorphicFaultInterleavings: schedules run against a store
// that faults periodically (absorbed by the fault budget, degrading
// steps), then the store heals and a final ADD-ONLY step on the same
// pool must be bit-identical to cold — a failed load leaves no page
// resident that a later step could read.
func TestMetamorphicFaultInterleavings(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for i := 0; i < 60; i++ {
		f := randIndex(t, r)
		p := randParams(r)
		p.FaultBudget = 100 // absorb everything; we want degradation, not errors
		qs := addOnlySchedule(r, len(f.lists), 2)
		pol := metaPolicies[i%len(metaPolicies)]
		ev := f.evaluator(t, 1+r.Intn(f.ix.NumPagesTotal+2), pol.mk(), p)

		// One read in two to one in five fails, by seeded coin.
		f.faults(t, fmt.Sprintf("transient:prob=%.2f", 1/float64(2+r.Intn(4))))
		for step, q := range qs[:len(qs)-1] {
			if _, err := ev.Evaluate(DF, q); err != nil {
				t.Fatalf("iter %d step %d: %v", i, step, err)
			}
		}
		f.heal()

		final := qs[len(qs)-1]
		res, err := ev.Evaluate(DF, final)
		if err != nil {
			t.Fatalf("iter %d final: %v", i, err)
		}
		if res.Degraded {
			t.Fatalf("iter %d: final step degraded with a healthy store", i)
		}
		assertBitIdentical(t, "post-fault final", res, coldEval(t, f, p, final))
	}
}

// TestMetamorphicCancellationInterleavings: a step canceled mid-scan
// leaves no frame pinned; retrying the same step on the same pool must
// still be exact, and the schedule continues unharmed.
func TestMetamorphicCancellationInterleavings(t *testing.T) {
	r := rand.New(rand.NewSource(31337))
	for i := 0; i < 60; i++ {
		f := randIndex(t, r)
		p := randParams(r)
		qs := addOnlySchedule(r, len(f.lists), 2)
		pol := metaPolicies[i%len(metaPolicies)]
		mgr := f.newPool(t, 1+r.Intn(f.ix.NumPagesTotal+2), pol.mk())
		ev, err := NewEvaluator(f.ix, mgr, f.conv, p)
		if err != nil {
			t.Fatal(err)
		}
		for step, q := range qs {
			if r.Intn(2) == 0 {
				// A doomed attempt first: canceled after a few fetches.
				ctx, cancel := context.WithCancel(context.Background())
				pool := &cancelAfterPool{Pool: mgr, cancel: cancel, n: r.Intn(3)}
				evC, err := NewEvaluator(f.ix, pool, f.conv, p)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := evC.EvaluateContext(ctx, DF, q); err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("iter %d step %d canceled attempt: %v", i, step, err)
				}
				cancel()
				if n := mgr.PinnedFrames(); n != 0 {
					t.Fatalf("iter %d step %d: %d frames pinned after cancel", i, step, n)
				}
			}
			res, err := ev.Evaluate(DF, q)
			if err != nil {
				t.Fatalf("iter %d step %d: %v", i, step, err)
			}
			assertBitIdentical(t, "step", res, coldEval(t, f, p, q))
		}
	}
}
