package eval

import (
	"errors"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// faultEvaluator builds an evaluator whose store fails according to the
// given schedule.
func faultEvaluator(t *testing.T, f *fixture, spec string, p Params) *Evaluator {
	t.Helper()
	f.faults(t, spec)
	return f.evaluator(t, 8, buffer.NewLRU(), p)
}

// TestFaultBudgetDegradesQuery: a term whose list faults permanently is
// dropped from the ranking (its scan ends at a §2.2 legal stopping
// point) and the query completes degraded instead of failing.
func TestFaultBudgetDegradesQuery(t *testing.T) {
	f := smallFixture(t)
	// beta's single page is page index... fault every read of beta's
	// pages via a page-range rule: find beta's first page.
	beta := f.ix.Terms[1]
	spec := storageSpecForTerm(beta)
	p := fullParams()
	p.FaultBudget = 1
	ev := faultEvaluator(t, f, spec, p)

	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 1}}
	res, err := ev.Evaluate(DF, q)
	if err != nil {
		t.Fatalf("Evaluate = %v, want degraded success within budget", err)
	}
	if !res.Degraded || res.Faults != 1 {
		t.Fatalf("Degraded=%v Faults=%d, want true/1", res.Degraded, res.Faults)
	}
	var faulted *TermTrace
	for i := range res.Trace {
		if res.Trace[i].Term == 1 {
			faulted = &res.Trace[i]
		}
	}
	if faulted == nil || !faulted.Faulted {
		t.Fatalf("trace for term 1 = %+v, want Faulted", faulted)
	}
	// The ranking must equal brute force over the surviving terms only:
	// an anytime partial answer, not garbage.
	want := f.bruteForce(Query{{Term: 0, Fqt: 1}, {Term: 2, Fqt: 1}}, p.TopN)
	if len(res.Top) != len(want) {
		t.Fatalf("got %d docs, want %d (ranking over surviving terms)", len(res.Top), len(want))
	}
	for i := range want {
		if res.Top[i].Doc != want[i].Doc {
			t.Errorf("rank %d: doc %d, want %d", i, res.Top[i].Doc, want[i].Doc)
		}
	}
}

// storageSpecForTerm builds a permanent-fault schedule covering exactly
// the term's page range.
func storageSpecForTerm(tm postings.TermMeta) string {
	first := int(tm.FirstPage)
	last := first + tm.NumPages - 1
	rules := []storage.FaultRule{{Kind: storage.FaultPermanent, FirstPage: first, LastPage: last, Prob: 1}}
	return storage.FormatFaultSchedule(rules)
}

// TestFaultBudgetZeroKeepsLegacyError: with no budget the first
// unreadable page fails the query, exactly the historical behavior.
func TestFaultBudgetZeroKeepsLegacyError(t *testing.T) {
	f := smallFixture(t)
	ev := faultEvaluator(t, f, storageSpecForTerm(f.ix.Terms[1]), fullParams())
	_, err := ev.Evaluate(DF, Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}})
	if !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("err = %v, want the injected fault to surface", err)
	}
}

// TestFaultBudgetExhaustedFailsQuery: one more faulting term than the
// budget allows surfaces the error.
func TestFaultBudgetExhaustedFailsQuery(t *testing.T) {
	f := smallFixture(t)
	spec := storageSpecForTerm(f.ix.Terms[1]) + ";" + storageSpecForTerm(f.ix.Terms[2])
	p := fullParams()
	p.FaultBudget = 1
	ev := faultEvaluator(t, f, spec, p)
	_, err := ev.Evaluate(DF, Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 1}})
	if !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("err = %v, want failure once the budget is spent", err)
	}
	// Budget 2 rides out both.
	p.FaultBudget = 2
	ev = faultEvaluator(t, f, spec, p)
	res, err := ev.Evaluate(DF, Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 1}})
	if err != nil || !res.Degraded || res.Faults != 2 {
		t.Fatalf("res=%+v err=%v, want degraded with Faults=2", res, err)
	}
}

// TestFaultBudgetUnpinsFrames: a mid-list fault (page 2 of alpha's
// 3-page list) must leave no pinned frames behind.
func TestFaultBudgetUnpinsFrames(t *testing.T) {
	f := smallFixture(t)
	alpha := f.ix.Terms[0]
	if alpha.NumPages < 2 {
		t.Fatalf("fixture term 0 has %d pages, need >= 2", alpha.NumPages)
	}
	mid := int(alpha.FirstPage) + 1
	rules := []storage.FaultRule{{Kind: storage.FaultPermanent, FirstPage: mid, LastPage: mid, Prob: 1}}
	p := fullParams()
	p.FaultBudget = 1
	ev := faultEvaluator(t, f, storage.FormatFaultSchedule(rules), p)
	res, err := ev.Evaluate(DF, Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}})
	if err != nil || !res.Degraded {
		t.Fatalf("res=%+v err=%v, want degraded success", res, err)
	}
	if pinned := ev.Buf.(*buffer.Manager).PinnedFrames(); pinned != 0 {
		t.Errorf("%d frames left pinned after a faulted scan", pinned)
	}
}

func TestValidateRejectsNegativeFaultBudget(t *testing.T) {
	p := fullParams()
	p.FaultBudget = -1
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted FaultBudget=-1")
	}
}
