// Metamorphic exactness harness for incremental refinement: over
// random indexes, tunings, pool sizes, policies and refinement
// schedules, a resumed evaluation must be bit-identical to a cold
// evaluation of the same query — same documents, bit-equal scores,
// same accumulator count, bit-equal S_max — and an ADD-ONLY resume
// must never process more pages than the cold run. The relation is
// checked under fault and cancellation interleavings too: a failed or
// degraded step may shorten what the snapshot can replay, never
// corrupt it.
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
// thresholds derive from the carried S_max), sometimes exhaustive.
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

// runSchedule drives one schedule through an incremental evaluator,
// asserting every step bit-identical to a cold evaluation of the same
// cumulative query and never more pages than cold. Returns the total
// rounds reused, so callers can assert the mechanism engages at all.
func runSchedule(t *testing.T, f *fixture, p Params, mkPol func() buffer.Policy, bufPages int, qs []Query) int {
	t.Helper()
	ev := f.evaluator(t, bufPages, mkPol(), p)
	var snap *Snapshot
	reused := 0
	for step, q := range qs {
		res, next, err := ev.EvaluateResumeContext(context.Background(), DF, q, snap)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		cold := coldEval(t, f, p, q)
		assertBitIdentical(t, "step", res, cold)
		// Cold on a fresh pool misses every processed page, and a
		// query never processes a page twice, so cold PagesRead is
		// exactly the full processing cost. An incremental step may
		// only process the suffix of that work.
		if res.PagesProcessed > cold.PagesProcessed {
			t.Fatalf("step %d: incremental processed %d pages, cold %d",
				step, res.PagesProcessed, cold.PagesProcessed)
		}
		if res.PagesRead > cold.PagesRead {
			t.Fatalf("step %d: incremental read %d pages, cold read %d",
				step, res.PagesRead, cold.PagesRead)
		}
		reused += res.ReusedRounds
		if next != nil {
			snap = next
		}
	}
	return reused
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
			totalReused := 0
			for i := 0; i < schedulesPerPolicy; i++ {
				f := randIndex(t, r)
				p := randParams(r)
				qs := addOnlySchedule(r, len(f.lists), 2+r.Intn(2))
				bufPages := 1 + r.Intn(f.ix.NumPagesTotal+2)
				totalReused += runSchedule(t, f, p, pol.mk, bufPages, qs)
			}
			if totalReused == 0 {
				t.Fatal("no schedule ever resumed a round — the mechanism never engaged")
			}
		})
	}
}

// TestMetamorphicAddDropSchedules hands the carried snapshot to the
// evaluator even across DROP steps: the prefix matcher must reuse
// only the still-agreeing leading rounds, keeping every step exact.
// (The refinement layer invalidates on DROP by policy; the eval layer
// must be correct even without that courtesy.)
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
// steps), then the store heals and a final ADD-ONLY step must be
// bit-identical to cold — degraded rounds were recorded not-clean and
// never replayed.
func TestMetamorphicFaultInterleavings(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for i := 0; i < 60; i++ {
		f := randIndex(t, r)
		p := randParams(r)
		p.FaultBudget = 100 // absorb everything; we want degradation, not errors
		qs := addOnlySchedule(r, len(f.lists), 2)
		pol := metaPolicies[i%len(metaPolicies)]
		ev := f.evaluator(t, 1+r.Intn(f.ix.NumPagesTotal+2), pol.mk(), p)

		var snap *Snapshot
		// One read in two to one in five fails, by seeded coin.
		f.faults(t, fmt.Sprintf("transient:prob=%.2f", 1/float64(2+r.Intn(4))))
		for step, q := range qs[:len(qs)-1] {
			res, next, err := ev.EvaluateResumeContext(context.Background(), DF, q, snap)
			if err != nil {
				t.Fatalf("iter %d step %d: %v", i, step, err)
			}
			if next != nil {
				snap = next
			}
			_ = res
		}
		f.heal()

		final := qs[len(qs)-1]
		res, _, err := ev.EvaluateResumeContext(context.Background(), DF, final, snap)
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
// returns no snapshot; retrying the same step with the prior snapshot
// must still be exact, and the schedule continues unharmed.
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
		var snap *Snapshot
		for step, q := range qs {
			if r.Intn(2) == 0 {
				// A doomed attempt first: canceled after a few fetches.
				ctx, cancel := context.WithCancel(context.Background())
				pool := &cancelAfterPool{Pool: mgr, cancel: cancel, n: r.Intn(3)}
				evC, err := NewEvaluator(f.ix, pool, f.conv, p)
				if err != nil {
					t.Fatal(err)
				}
				_, ghost, err := evC.EvaluateResumeContext(ctx, DF, q, snap)
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("iter %d step %d canceled attempt: %v", i, step, err)
				}
				if err == nil && ghost != nil {
					// The cancel landed after the scan finished — a
					// completed trajectory is a fine snapshot.
					snap = ghost
				} else if ghost != nil {
					t.Fatalf("iter %d step %d: canceled attempt returned a snapshot", i, step)
				}
				cancel()
				if n := mgr.PinnedFrames(); n != 0 {
					t.Fatalf("iter %d step %d: %d frames pinned after cancel", i, step, n)
				}
			}
			res, next, err := ev.EvaluateResumeContext(context.Background(), DF, q, snap)
			if err != nil {
				t.Fatalf("iter %d step %d: %v", i, step, err)
			}
			assertBitIdentical(t, "step", res, coldEval(t, f, p, q))
			if next != nil {
				snap = next
			}
		}
	}
}
