package bufir

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"
)

// sortByIDF orders a query the way DF processes it — idf descending,
// TermID ascending — so tests can append terms that extend the
// processed prefix instead of reordering it.
func sortByIDF(ix *Index, q Query) Query {
	out := append(Query{}, q...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := ix.meta().IDF(out[i].Term), ix.meta().IDF(out[j].Term)
		if a != b {
			return a > b
		}
		return out[i].Term < out[j].Term
	})
	return out
}

func TestRefinementSession(t *testing.T) {
	col, ix := testIndex(t)
	s, err := ix.NewSession(SessionConfig{EvalOptions: EvalOptions{Algorithm: BAF}, Policy: RAP, BufferPages: 96})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}

	ref, res, err := s.StartRefinement(context.Background(), q[:3], RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) == 0 {
		t.Fatal("initial query returned nothing")
	}
	if len(ref.Current()) != 3 {
		t.Fatalf("current = %d terms", len(ref.Current()))
	}

	// Add the next three terms.
	if _, err := ref.AddContext(context.Background(), q[3], q[4], q[5]); err != nil {
		t.Fatal(err)
	}
	if len(ref.Current()) != 6 {
		t.Fatalf("after add: %d terms", len(ref.Current()))
	}

	// Adding an existing term raises its frequency.
	before := ref.Current()
	if _, err := ref.AddContext(context.Background(), QueryTerm{Term: q[0].Term, Fqt: 2}); err != nil {
		t.Fatal(err)
	}
	after := ref.Current()
	if len(after) != len(before) {
		t.Fatal("re-adding a term changed the term count")
	}
	for _, qt := range after {
		if qt.Term == q[0].Term && qt.Fqt != q[0].Fqt+2 {
			t.Errorf("fqt = %d, want %d", qt.Fqt, q[0].Fqt+2)
		}
	}

	// Drop a term.
	if _, err := ref.DropContext(context.Background(), q[1].Term); err != nil {
		t.Fatal(err)
	}
	if len(ref.Current()) != 5 {
		t.Fatalf("after drop: %d terms", len(ref.Current()))
	}
	for _, qt := range ref.Current() {
		if qt.Term == q[1].Term {
			t.Fatal("dropped term still present")
		}
	}

	// Error paths: unknown drop, empty add, dropping to empty.
	if _, err := ref.DropContext(context.Background(), q[1].Term); err == nil {
		t.Error("dropping an absent term should fail")
	}
	if _, err := ref.AddContext(context.Background()); err == nil {
		t.Error("empty add should fail")
	}
	for len(ref.Current()) > 1 {
		if _, err := ref.DropContext(context.Background(), ref.Current()[0].Term); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.DropContext(context.Background(), ref.Current()[0].Term); err == nil {
		t.Error("dropping the last term should fail")
	}

	// History covers every successful submission; warm refinements
	// should read less than a cold rerun of the same final query.
	if got := len(ref.History); got != 8 { // start + add + add + drop + 4 drops
		t.Errorf("history length = %d, want 8", got)
	}
	if ref.TotalDiskReads() <= 0 {
		t.Error("no disk reads recorded")
	}
	last := ref.History[len(ref.History)-1]
	cold, err := ix.NewSession(SessionConfig{EvalOptions: EvalOptions{Algorithm: BAF}, Policy: RAP, BufferPages: 96})
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Search(ref.Current())
	if err != nil {
		t.Fatal(err)
	}
	if last.DiskReads > coldRes.PagesRead {
		t.Errorf("warm refinement read %d pages, cold run %d", last.DiskReads, coldRes.PagesRead)
	}
}

// equalRankings fails unless the two results agree exactly: same
// documents, bit-equal scores, same accumulator count and S_max — the
// incremental-refinement contract.
func equalRankings(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Top) != len(want.Top) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Top), len(want.Top))
	}
	for i := range want.Top {
		if got.Top[i].Doc != want.Top[i].Doc || got.Top[i].Score != want.Top[i].Score {
			t.Fatalf("%s pos %d: got %+v, want %+v", label, i, got.Top[i], want.Top[i])
		}
	}
	if got.Accumulators != want.Accumulators || got.Smax != want.Smax {
		t.Fatalf("%s: accumulators/smax %d/%v, want %d/%v",
			label, got.Accumulators, got.Smax, want.Accumulators, want.Smax)
	}
}

// TestRefinementTable drives Add/Drop edge cases table-style: the
// duplicate-term frequency raise, dropping an unknown term, dropping
// the last term, and TotalDiskReads accounting.
func TestRefinementTable(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(q) < 3 {
		t.Skip("topic too small")
	}
	newRef := func(t *testing.T, initial Query) *Refinement {
		t.Helper()
		s, err := ix.NewSession(SessionConfig{Policy: LRU, BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := s.StartRefinement(context.Background(), initial, RefineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	cases := []struct {
		name    string
		run     func(t *testing.T, ref *Refinement) error
		wantErr bool
		check   func(t *testing.T, ref *Refinement)
	}{
		{
			name: "add raises duplicate frequency",
			run: func(t *testing.T, ref *Refinement) error {
				_, err := ref.AddContext(context.Background(), QueryTerm{Term: q[0].Term, Fqt: 3})
				return err
			},
			check: func(t *testing.T, ref *Refinement) {
				cur := ref.Current()
				if len(cur) != 2 {
					t.Fatalf("term count = %d, want 2 (no new term)", len(cur))
				}
				for _, qt := range cur {
					if qt.Term == q[0].Term && qt.Fqt != q[0].Fqt+3 {
						t.Fatalf("fqt = %d, want %d", qt.Fqt, q[0].Fqt+3)
					}
				}
			},
		},
		{
			name: "add nothing fails",
			run: func(t *testing.T, ref *Refinement) error {
				_, err := ref.AddContext(context.Background())
				return err
			},
			wantErr: true,
		},
		{
			name: "drop unknown term fails without committing",
			run: func(t *testing.T, ref *Refinement) error {
				_, err := ref.DropContext(context.Background(), q[2].Term)
				return err
			},
			wantErr: true,
			check: func(t *testing.T, ref *Refinement) {
				if len(ref.Current()) != 2 || len(ref.History) != 1 {
					t.Fatal("failed drop mutated the session")
				}
			},
		},
		{
			name: "drop to last term then fail",
			run: func(t *testing.T, ref *Refinement) error {
				if _, err := ref.DropContext(context.Background(), q[0].Term); err != nil {
					return err
				}
				_, err := ref.DropContext(context.Background(), q[1].Term)
				return err
			},
			wantErr: true,
			check: func(t *testing.T, ref *Refinement) {
				if len(ref.Current()) != 1 {
					t.Fatalf("term count = %d, want 1", len(ref.Current()))
				}
			},
		},
		{
			name: "history sums disk reads",
			run: func(t *testing.T, ref *Refinement) error {
				if _, err := ref.AddContext(context.Background(), q[2]); err != nil {
					return err
				}
				_, err := ref.DropContext(context.Background(), q[2].Term)
				return err
			},
			check: func(t *testing.T, ref *Refinement) {
				if len(ref.History) != 3 {
					t.Fatalf("history = %d entries, want 3", len(ref.History))
				}
				sum := 0
				for _, st := range ref.History {
					sum += st.DiskReads
					if st.Elapsed <= 0 {
						t.Error("step recorded no Elapsed")
					}
					if st.Partial || st.Degraded {
						t.Errorf("clean step recorded Partial=%v Degraded=%v", st.Partial, st.Degraded)
					}
				}
				if got := ref.TotalDiskReads(); got != sum || got <= 0 {
					t.Fatalf("TotalDiskReads = %d, want positive %d", got, sum)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := newRef(t, Query{q[0], q[1]})
			err := tc.run(t, ref)
			if tc.wantErr != (err != nil) {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if tc.check != nil {
				tc.check(t, ref)
			}
		})
	}
}

// TestIncrementalRefinementBitIdentical: with RefineOptions.Incremental
// under DF, every ADD-ONLY step resumes (Resumed, ReusedRounds > 0),
// a DROP invalidates and runs cold (Invalidated), and every step's
// ranking is bit-identical to a cold session evaluating the same
// cumulative query.
func TestIncrementalRefinementBitIdentical(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(q) < 6 {
		t.Skip("topic too small")
	}
	q = sortByIDF(ix, q)
	s, err := ix.NewSession(SessionConfig{Policy: LRU, BufferPages: 96})
	if err != nil {
		t.Fatal(err)
	}
	coldOf := func(t *testing.T, cur Query) *Result {
		t.Helper()
		cs, err := ix.NewSession(SessionConfig{Policy: LRU, BufferPages: 96})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cs.Search(cur)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ref, res, err := s.StartRefinement(context.Background(), q[:3], RefineOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	equalRankings(t, "initial", res, coldOf(t, ref.Current()))

	res, err = ref.AddContext(context.Background(), q[3], q[4])
	if err != nil {
		t.Fatal(err)
	}
	cold := coldOf(t, ref.Current())
	equalRankings(t, "add", res, cold)
	step := ref.History[len(ref.History)-1]
	if !step.Resumed || step.ReusedRounds == 0 || res.ReusedRounds != step.ReusedRounds {
		t.Fatalf("ADD-ONLY step did not resume: %+v", step)
	}
	if res.PagesProcessed >= cold.PagesProcessed {
		t.Fatalf("incremental step processed %d pages, cold %d", res.PagesProcessed, cold.PagesProcessed)
	}

	// DROP invalidates: the evaluation runs cold and says so.
	res, err = ref.DropContext(context.Background(), q[0].Term)
	if err != nil {
		t.Fatal(err)
	}
	equalRankings(t, "drop", res, coldOf(t, ref.Current()))
	step = ref.History[len(ref.History)-1]
	if !step.Invalidated || step.Resumed || res.ReusedRounds != 0 {
		t.Fatalf("DROP step should invalidate and run cold: %+v", step)
	}

	// The post-drop evaluation reseeded the snapshot: adding again
	// resumes again.
	res, err = ref.AddContext(context.Background(), q[5])
	if err != nil {
		t.Fatal(err)
	}
	equalRankings(t, "re-add", res, coldOf(t, ref.Current()))
	step = ref.History[len(ref.History)-1]
	if !step.Resumed || step.Invalidated {
		t.Fatalf("post-drop ADD should resume from the reseeded snapshot: %+v", step)
	}
}

// TestRefinementCancelMidStepConsistent: a step whose context dies —
// before or during evaluation — commits nothing: Current, History and
// the carried snapshot keep their pre-step state, the partial answer
// (if any) rides along with the error, and the next step still
// resumes and stays bit-identical to cold.
func TestRefinementCancelMidStepConsistent(t *testing.T) {
	col, err := GenerateCollection(TinyCollectionConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(col)
	if err != nil {
		t.Fatal(err)
	}
	// Every page read sleeps 2ms (context-aware), so a 1ms deadline
	// dies inside the first uncached read — a genuine mid-step cancel.
	if err := ix.InjectFaults("latency:spike=2ms", 3); err != nil {
		t.Fatal(err)
	}
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(q) < 5 {
		t.Skip("topic too small")
	}
	q = sortByIDF(ix, q)
	s, err := ix.NewSession(SessionConfig{Policy: LRU, BufferPages: 96})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := s.StartRefinement(context.Background(), q[:3], RefineOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	wantCur, wantHist := ref.Current(), len(ref.History)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := ref.AddContext(ctx, q[3], q[4])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if res != nil && !res.Partial {
		t.Error("mid-step result returned without Partial set")
	}
	if len(ref.History) != wantHist {
		t.Fatal("canceled step appended to History")
	}
	cur := ref.Current()
	if len(cur) != len(wantCur) {
		t.Fatal("canceled step committed the query change")
	}
	for i := range wantCur {
		if cur[i] != wantCur[i] {
			t.Fatal("canceled step committed the query change")
		}
	}

	// A pre-dead context takes the early-return path; same contract.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := ref.AddContext(dead, q[3]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ref.History) != wantHist || len(ref.Current()) != len(wantCur) {
		t.Fatal("pre-dead step mutated the session")
	}

	// The snapshot survived both failures: the retried step resumes
	// and matches a cold evaluation exactly.
	res, err = ref.AddContext(context.Background(), q[3], q[4])
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedRounds == 0 {
		t.Fatal("retried step did not resume from the surviving snapshot")
	}
	cs, err := ix.NewSession(SessionConfig{Policy: LRU, BufferPages: 96})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cs.Search(ref.Current())
	if err != nil {
		t.Fatal(err)
	}
	equalRankings(t, "retried", res, cold)
}

// TestRefinementDegradedStepKeepsSnapshotHonest: a step that loses a
// term round to an I/O fault (within the fault budget) records
// Degraded in History, and the carried snapshot marks the faulted
// round not-clean — the next ADD-ONLY step re-scans it and lands
// bit-identical to cold.
func TestRefinementDegradedStepKeepsSnapshotHonest(t *testing.T) {
	col, err := GenerateCollection(TinyCollectionConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(col)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(q) < 5 {
		t.Skip("topic too small")
	}
	q = sortByIDF(ix, q)
	// The first read of every page faults exactly once; with a fault
	// budget, steps degrade until every touched page has burned its
	// fault, then turn clean.
	if err := ix.InjectFaults("transient:first=1", 9); err != nil {
		t.Fatal(err)
	}
	s, err := ix.NewSession(SessionConfig{
		EvalOptions: EvalOptions{FaultBudget: 100},
		Policy:      LRU, BufferPages: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, res, err := s.StartRefinement(context.Background(), q[:3], RefineOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !ref.History[0].Degraded {
		t.Fatalf("initial step under first-read faults should degrade and say so in History (res %v, hist %v)",
			res.Degraded, ref.History[0].Degraded)
	}

	// Keep raising the leading term's frequency — ADD-ONLY steps that
	// rerun from round 0, each pass burning the remaining first-read
	// faults. Every truncated round was recorded not-clean, so if the
	// snapshot is honest the passes converge to a clean result.
	for i := 0; res.Degraded && i < 20; i++ {
		res, err = ref.AddContext(context.Background(), QueryTerm{Term: q[0].Term, Fqt: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	if res.Degraded {
		t.Fatal("steps never converged to clean after the first-read faults burned")
	}
	cs, err := ix.NewSession(SessionConfig{
		EvalOptions: EvalOptions{FaultBudget: 100},
		Policy:      LRU, BufferPages: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cs.Search(ref.Current())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Degraded {
		t.Fatal("cold reference degraded; every page should have burned its fault")
	}
	equalRankings(t, "converged", res, cold)

	// The clean pass left a fully clean snapshot: raising the LAST
	// DF-order term's frequency reuses every round before it and stays
	// exact — the earlier degraded steps did not poison the carried
	// state.
	res, err = ref.AddContext(context.Background(), QueryTerm{Term: q[2].Term, Fqt: 1})
	if err != nil {
		t.Fatal(err)
	}
	step := ref.History[len(ref.History)-1]
	if !step.Resumed || step.ReusedRounds == 0 || res.Degraded || step.Degraded {
		t.Fatalf("post-convergence ADD-ONLY step should resume cleanly: %+v", step)
	}
	cold2, err := cs.Search(ref.Current())
	if err != nil {
		t.Fatal(err)
	}
	equalRankings(t, "post-degraded resume", res, cold2)
}
