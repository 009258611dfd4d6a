package bufir

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

// refinement walks a Session through the paper's §2.1 user model —
// add or drop terms, resubmit — recording every committed step. Each
// step is evaluated afresh over the session's pool, which the earlier
// steps left warm. A failed or canceled step commits nothing: the
// current query and History keep their pre-step state, and the partial
// result, if any, rides along with the error.
type refinement struct {
	s       *Session
	current Query
	History []refinementStep
}

// refinementStep is one committed submission's outcome.
type refinementStep struct {
	DiskReads         int
	Partial, Degraded bool
	Elapsed           time.Duration
}

// startRefinement submits the initial query.
func startRefinement(ctx context.Context, s *Session, initial Query) (*refinement, *Result, error) {
	r := &refinement{s: s}
	res, err := r.submit(ctx, initial)
	if err != nil {
		return nil, nil, err
	}
	return r, res, nil
}

// Current returns a copy of the current query.
func (r *refinement) Current() Query { return append(Query{}, r.current...) }

// AddContext appends terms (raising the frequency of terms already in
// the query) and resubmits.
func (r *refinement) AddContext(ctx context.Context, terms ...QueryTerm) (*Result, error) {
	if len(terms) == 0 {
		return nil, errors.New("no terms to add")
	}
	next := r.Current()
	for _, qt := range terms {
		i := slices.IndexFunc(next, func(c QueryTerm) bool { return c.Term == qt.Term })
		if i < 0 {
			next = append(next, qt)
		} else {
			next[i].Fqt += qt.Fqt
		}
	}
	return r.submit(ctx, next)
}

// DropContext removes a term and resubmits; the last term cannot go.
func (r *refinement) DropContext(ctx context.Context, term TermID) (*Result, error) {
	next := slices.DeleteFunc(r.Current(), func(c QueryTerm) bool { return c.Term == term })
	switch {
	case len(next) == len(r.current):
		return nil, fmt.Errorf("term %d not in the current query", term)
	case len(next) == 0:
		return nil, errors.New("cannot drop the last query term")
	}
	return r.submit(ctx, next)
}

func (r *refinement) submit(ctx context.Context, q Query) (*Result, error) {
	res, err := r.s.SearchContext(ctx, q)
	if err != nil {
		return res, err
	}
	r.current = q
	r.History = append(r.History, refinementStep{
		DiskReads: res.PagesRead,
		Partial:   res.Partial,
		Degraded:  res.Degraded,
		Elapsed:   res.Elapsed,
	})
	return res, nil
}

// TotalDiskReads sums the committed steps' disk reads.
func (r *refinement) TotalDiskReads() int {
	total := 0
	for _, st := range r.History {
		total += st.DiskReads
	}
	return total
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

	ref, res, err := startRefinement(context.Background(), s, q[:3])
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
// documents, bit-equal scores, same accumulator count and S_max.
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
	newRef := func(t *testing.T, initial Query) *refinement {
		t.Helper()
		s, err := ix.NewSession(SessionConfig{Policy: LRU, BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := startRefinement(context.Background(), s, initial)
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	cases := []struct {
		name    string
		run     func(t *testing.T, ref *refinement) error
		wantErr bool
		check   func(t *testing.T, ref *refinement)
	}{
		{
			name: "add raises duplicate frequency",
			run: func(t *testing.T, ref *refinement) error {
				_, err := ref.AddContext(context.Background(), QueryTerm{Term: q[0].Term, Fqt: 3})
				return err
			},
			check: func(t *testing.T, ref *refinement) {
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
			run: func(t *testing.T, ref *refinement) error {
				_, err := ref.AddContext(context.Background())
				return err
			},
			wantErr: true,
		},
		{
			name: "drop unknown term fails without committing",
			run: func(t *testing.T, ref *refinement) error {
				_, err := ref.DropContext(context.Background(), q[2].Term)
				return err
			},
			wantErr: true,
			check: func(t *testing.T, ref *refinement) {
				if len(ref.Current()) != 2 || len(ref.History) != 1 {
					t.Fatal("failed drop mutated the session")
				}
			},
		},
		{
			name: "drop to last term then fail",
			run: func(t *testing.T, ref *refinement) error {
				if _, err := ref.DropContext(context.Background(), q[0].Term); err != nil {
					return err
				}
				_, err := ref.DropContext(context.Background(), q[1].Term)
				return err
			},
			wantErr: true,
			check: func(t *testing.T, ref *refinement) {
				if len(ref.Current()) != 1 {
					t.Fatalf("term count = %d, want 1", len(ref.Current()))
				}
			},
		},
		{
			name: "history sums disk reads",
			run: func(t *testing.T, ref *refinement) error {
				if _, err := ref.AddContext(context.Background(), q[2]); err != nil {
					return err
				}
				_, err := ref.DropContext(context.Background(), q[2].Term)
				return err
			},
			check: func(t *testing.T, ref *refinement) {
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

// TestRefinementCancelMidStepConsistent: a step whose context dies —
// before or during evaluation — commits nothing: Current and History
// keep their pre-step state, the partial answer (if any) rides along
// with the error, and the retried step, over the pool the canceled
// attempts left behind, is bit-identical to cold.
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
	s, err := ix.NewSession(SessionConfig{Policy: LRU, BufferPages: 96})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := startRefinement(context.Background(), s, q[:3])
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

	// The retried step matches a cold evaluation exactly.
	res, err = ref.AddContext(context.Background(), q[3], q[4])
	if err != nil {
		t.Fatal(err)
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
