package eval

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"bufir/internal/buffer"
)

// assertBitIdentical fails unless a and b agree exactly — same docs,
// bit-equal scores, same accumulator count, bit-equal S_max. This is
// the resume contract: not approximately equal, equal.
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
// the reference every resumed result must match bit for bit. With a
// fresh pool every processed page is a miss, so its PagesRead is the
// cold page cost ADD-ONLY resumes must beat.
func coldEval(t *testing.T, f *fixture, p Params, q Query) *Result {
	t.Helper()
	ev := f.evaluator(t, f.ix.NumPagesTotal+2, buffer.NewLRU(), p)
	res, err := ev.Evaluate(DF, q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResumeAddOnlyBitIdentical: adding a lower-idf term extends the
// canonical order, so the whole previous trajectory replays — the
// resumed result equals a cold evaluation of the refined query
// exactly, at a strictly lower page cost.
func TestResumeAddOnlyBitIdentical(t *testing.T) {
	f := smallFixture(t)
	p := fullParams()
	ev := f.evaluator(t, 64, buffer.NewLRU(), p)

	q1 := Query{{Term: 1, Fqt: 2}, {Term: 2, Fqt: 1}} // beta, gamma
	res1, snap, err := ev.EvaluateResumeContext(context.Background(), DF, q1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("completed DF evaluation returned no snapshot")
	}
	if res1.ReusedRounds != 0 {
		t.Fatalf("cold evaluation reused %d rounds", res1.ReusedRounds)
	}
	if snap.Rounds() != 2 || snap.CleanRounds() != 2 {
		t.Fatalf("snapshot rounds = %d clean = %d, want 2/2", snap.Rounds(), snap.CleanRounds())
	}
	assertBitIdentical(t, "initial", res1, coldEval(t, f, p, q1))

	// alpha has the lowest idf: it sorts after beta and gamma, so the
	// ADD-ONLY step resumes the full two-round prefix.
	q2 := append(append(Query{}, q1...), QueryTerm{Term: 0, Fqt: 1})
	res2, snap2, err := ev.EvaluateResumeContext(context.Background(), DF, q2, snap)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ReusedRounds != 2 {
		t.Fatalf("ReusedRounds = %d, want 2", res2.ReusedRounds)
	}
	cold := coldEval(t, f, p, q2)
	assertBitIdentical(t, "resumed", res2, cold)
	if res2.PagesProcessed >= cold.PagesProcessed {
		t.Fatalf("resumed processed %d pages, cold %d — resume saved nothing",
			res2.PagesProcessed, cold.PagesProcessed)
	}
	// The replayed rounds appear in the trace as Reused with zero cost.
	reused := 0
	for _, tr := range res2.Trace {
		if tr.Reused {
			reused++
			if tr.PagesProcessed != 0 || tr.PagesRead != 0 || tr.PagesHit != 0 || tr.EntriesProcessed != 0 {
				t.Fatalf("reused round %q carries cost counters: %+v", tr.Name, tr)
			}
		}
	}
	if reused != 2 {
		t.Fatalf("%d Reused trace rows, want 2", reused)
	}
	if snap2 == nil || snap2.Rounds() != 3 {
		t.Fatal("resumed evaluation did not extend the snapshot")
	}
	// The extended snapshot seeds the next step: the original snapshot
	// is untouched (immutability) and still replays.
	if snap.Rounds() != 2 {
		t.Fatalf("resume mutated the previous snapshot: %d rounds", snap.Rounds())
	}
	res2b, _, err := ev.EvaluateResumeContext(context.Background(), DF, q2, snap)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "re-resumed", res2b, cold)
}

// TestResumeRaisedFqtShortensPrefix: raising a term's query frequency
// changes that round's thresholds, so the match stops in front of it —
// the rounds before it still replay, and the result stays exact.
func TestResumeRaisedFqtShortensPrefix(t *testing.T) {
	f := smallFixture(t)
	p := Params{CAdd: 0.005, CIns: 0.15, TopN: 10}
	ev := f.evaluator(t, 64, buffer.NewLRU(), p)

	q1 := Query{{Term: 2, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 0, Fqt: 1}}
	_, snap, err := ev.EvaluateResumeContext(context.Background(), DF, q1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Raise beta's frequency: canonical order is gamma, beta, alpha —
	// gamma still matches, beta (changed) and alpha rerun.
	q2 := Query{{Term: 2, Fqt: 1}, {Term: 1, Fqt: 3}, {Term: 0, Fqt: 1}}
	res, _, err := ev.EvaluateResumeContext(context.Background(), DF, q2, snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedRounds != 1 {
		t.Fatalf("ReusedRounds = %d, want 1 (only the round before the raised term)", res.ReusedRounds)
	}
	assertBitIdentical(t, "raised-fqt", res, coldEval(t, f, p, q2))
}

// TestResumeAfterDropReusesCommonPrefix: the eval layer's prefix
// matcher is oblivious to how the query changed — after a DROP the
// leading rounds that still agree with the new canonical order
// replay, and the result is still exact. (The refinement layer
// invalidates snapshots on DROP by policy; this guards the layer
// below against an upper-layer mistake.)
func TestResumeAfterDropReusesCommonPrefix(t *testing.T) {
	f := smallFixture(t)
	p := fullParams()
	ev := f.evaluator(t, 64, buffer.NewLRU(), p)

	q1 := Query{{Term: 2, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 0, Fqt: 1}}
	_, snap, err := ev.EvaluateResumeContext(context.Background(), DF, q1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drop beta: order was gamma, beta, alpha → gamma, alpha. Only the
	// gamma round survives the prefix match.
	q2 := Query{{Term: 2, Fqt: 1}, {Term: 0, Fqt: 1}}
	res, _, err := ev.EvaluateResumeContext(context.Background(), DF, q2, snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedRounds != 1 {
		t.Fatalf("ReusedRounds = %d, want 1 (gamma)", res.ReusedRounds)
	}
	assertBitIdentical(t, "after-drop", res, coldEval(t, f, p, q2))
}

// TestResumeParamsMismatchRunsCold: a snapshot recorded under
// different tuning constants is not a legal resume point.
func TestResumeParamsMismatchRunsCold(t *testing.T) {
	f := smallFixture(t)
	q := Query{{Term: 2, Fqt: 1}, {Term: 1, Fqt: 1}}
	ev1 := f.evaluator(t, 64, buffer.NewLRU(), Params{CAdd: 0.005, CIns: 0.15, TopN: 10})
	_, snap, err := ev1.EvaluateResumeContext(context.Background(), DF, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev2 := f.evaluator(t, 64, buffer.NewLRU(), Params{CAdd: 0.01, CIns: 0.3, TopN: 10})
	res, _, err := ev2.EvaluateResumeContext(context.Background(), DF, q, snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedRounds != 0 {
		t.Fatalf("ReusedRounds = %d under mismatched params, want 0", res.ReusedRounds)
	}
}

// TestResumeBAFNeverSnapshots: BAF's round order depends on buffer
// residency, so it neither records nor resumes.
func TestResumeBAFNeverSnapshots(t *testing.T) {
	f := smallFixture(t)
	ev := f.evaluator(t, 64, buffer.NewLRU(), fullParams())
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}}
	res, snap, err := ev.EvaluateResumeContext(context.Background(), BAF, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatal("BAF returned a snapshot")
	}
	if res.ReusedRounds != 0 {
		t.Fatalf("BAF reused %d rounds", res.ReusedRounds)
	}
	// A DF snapshot handed to a BAF evaluation is ignored, not misused.
	evDF := f.evaluator(t, 64, buffer.NewLRU(), fullParams())
	_, dfSnap, err := evDF.EvaluateResumeContext(context.Background(), DF, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, snap2, err := ev.EvaluateResumeContext(context.Background(), BAF, q, dfSnap)
	if err != nil {
		t.Fatal(err)
	}
	if snap2 != nil || res2.ReusedRounds != 0 {
		t.Fatal("BAF resumed from a DF snapshot")
	}
}

// TestResumeCtxErrorKeepsNoSnapshot: a canceled resume returns the
// anytime partial alongside the error and NO snapshot — the caller
// keeps its previous one, which must still replay correctly.
func TestResumeCtxErrorKeepsNoSnapshot(t *testing.T) {
	f := smallFixture(t)
	p := fullParams()
	mgr := f.newPool(t, 64, buffer.NewLRU())
	evPlain, err := NewEvaluator(f.ix, mgr, f.conv, p)
	if err != nil {
		t.Fatal(err)
	}
	q1 := Query{{Term: 2, Fqt: 1}, {Term: 1, Fqt: 1}}
	_, snap1, err := evPlain.EvaluateResumeContext(context.Background(), DF, q1, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The refined query is canceled mid-scan: the resumed prefix costs
	// no fetches, so 2 fetches land inside alpha's 3-page list.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := &cancelAfterPool{Pool: mgr, cancel: cancel, n: 2}
	ev, err := NewEvaluator(f.ix, pool, f.conv, p)
	if err != nil {
		t.Fatal(err)
	}
	q2 := Query{{Term: 2, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 0, Fqt: 1}}
	res2, snap2, err := ev.EvaluateResumeContext(ctx, DF, q2, snap1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res2 == nil || !res2.Partial {
		t.Fatal("want the anytime partial alongside the context error")
	}
	if snap2 != nil {
		t.Fatal("a truncated trajectory produced a snapshot")
	}
	if n := mgr.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
	// The old snapshot survived the failed step and still resumes.
	ev2, err := NewEvaluator(f.ix, mgr, f.conv, p)
	if err != nil {
		t.Fatal(err)
	}
	res3, _, err := ev2.EvaluateResumeContext(context.Background(), DF, q2, snap1)
	if err != nil {
		t.Fatal(err)
	}
	if res3.ReusedRounds != 2 {
		t.Fatalf("ReusedRounds = %d after recovery, want 2", res3.ReusedRounds)
	}
	assertBitIdentical(t, "recovered", res3, coldEval(t, f, p, q2))
}

// TestDegradedSnapshotCleanPrefixOnly: a faulted round completes the
// query degraded, and the snapshot it leaves marks that round
// not-clean — the next resume replays only the rounds before the
// fault and re-scans the rest, staying exact once the fault clears.
func TestDegradedSnapshotCleanPrefixOnly(t *testing.T) {
	f := smallFixture(t)
	p := fullParams()
	p.FaultBudget = 2
	ev := f.evaluator(t, 64, buffer.NewLRU(), p)

	// DF order gamma(1pg), beta(2pg), alpha(3pg): the first read of
	// beta's first page faults (then the page heals) — beta is
	// abandoned, gamma stays clean.
	f.faults(t, fmt.Sprintf("transient:pages=%d,first=1", f.ix.PageOf(1, 0)))
	q1 := Query{{Term: 2, Fqt: 1}, {Term: 1, Fqt: 1}}
	res1, snap, err := ev.EvaluateResumeContext(context.Background(), DF, q1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Degraded {
		t.Fatal("fault did not degrade the evaluation")
	}
	if snap == nil {
		t.Fatal("degraded-but-completed evaluation returned no snapshot")
	}
	if snap.Rounds() != 2 || snap.CleanRounds() != 1 {
		t.Fatalf("rounds = %d clean = %d, want 2/1", snap.Rounds(), snap.CleanRounds())
	}

	// The next ADD-ONLY step resumes only gamma; beta re-scans against
	// the now-healthy store, so the result is exact, not poisoned by
	// the degraded round.
	q2 := Query{{Term: 2, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 0, Fqt: 1}}
	res2, snap2, err := ev.EvaluateResumeContext(context.Background(), DF, q2, snap)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ReusedRounds != 1 {
		t.Fatalf("ReusedRounds = %d, want 1 (the clean prefix)", res2.ReusedRounds)
	}
	if res2.Degraded {
		t.Fatal("recovered evaluation still degraded")
	}
	assertBitIdentical(t, "post-fault", res2, coldEval(t, f, p, q2))
	if snap2 == nil || snap2.CleanRounds() != 3 {
		t.Fatal("recovered evaluation did not leave a fully clean snapshot")
	}
}

// TestSnapshotQueryRoundTrip: the snapshot remembers its query in
// canonical order.
func TestSnapshotQueryRoundTrip(t *testing.T) {
	f := smallFixture(t)
	ev := f.evaluator(t, 64, buffer.NewLRU(), fullParams())
	q := Query{{Term: 0, Fqt: 2}, {Term: 2, Fqt: 1}}
	_, snap, err := ev.EvaluateResumeContext(context.Background(), DF, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := snap.Query()
	// Canonical DF order: gamma (idf high) before alpha.
	want := Query{{Term: 2, Fqt: 1}, {Term: 0, Fqt: 2}}
	if len(got) != len(want) {
		t.Fatalf("snapshot query = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot query = %v, want %v", got, want)
		}
	}
	if snap.Algo() != DF {
		t.Fatalf("Algo = %v, want DF", snap.Algo())
	}
}
