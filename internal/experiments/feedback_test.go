package experiments

import (
	"testing"

	"bufir"
	"bufir/internal/buffer"
	"bufir/internal/corpus"
	"bufir/internal/eval"
	"bufir/internal/postings"
	"bufir/internal/rank"
	"bufir/internal/refine"
	"bufir/internal/storage"
)

// feedbackEnv builds a small synthetic collection environment.
func feedbackEnv(t *testing.T) (*postings.Index, *storage.Store, *corpus.Collection) {
	t.Helper()
	cfg := corpus.TinyConfig(77)
	col, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, pages, err := postings.Build(col.Lists, col.NumDocs, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return ix, storage.NewStore(pages), col
}

// fullEvaluate returns an exhaustive evaluator callback.
func fullEvaluate(t *testing.T, ix *postings.Index, st *storage.Store) func(eval.Query) ([]rank.ScoredDoc, error) {
	t.Helper()
	mgr, err := buffer.NewManager(ix.NumPagesTotal+1, 1, st, ix, func(int) buffer.Policy { return buffer.NewLRU() })
	if err != nil {
		t.Fatal(err)
	}
	conv := postings.NewConversionTable(ix, postings.DefaultMaxKey)
	ev, err := eval.NewEvaluator(ix, mgr, conv, eval.Params{TopN: 20})
	if err != nil {
		t.Fatal(err)
	}
	return func(q eval.Query) ([]rank.ScoredDoc, error) {
		res, err := ev.Evaluate(eval.DF, q)
		if err != nil {
			return nil, err
		}
		return res.Top, nil
	}
}

func TestFeedbackSequenceGrows(t *testing.T) {
	ix, st, col := feedbackEnv(t)
	// Seed with the first three terms of topic 0.
	var initial eval.Query
	for _, tt := range col.Topics[0].Terms[:3] {
		id, ok := ix.LookupTerm(tt.Term)
		if !ok {
			t.Fatal("term missing")
		}
		initial = append(initial, eval.QueryTerm{Term: id, Fqt: tt.Fqt})
	}
	opts := feedbackOptions{Rounds: 4, AddPerRound: 3, FeedbackDocs: 10}
	seq, err := feedbackSequence(ix, st, initial, opts, fullEvaluate(t, ix, st))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Refinements) != 5 { // initial + 4 rounds
		t.Fatalf("refinements = %d, want 5", len(seq.Refinements))
	}
	for i, q := range seq.Refinements {
		want := 3 + 3*i
		if len(q) != want {
			t.Errorf("refinement %d has %d terms, want %d", i+1, len(q), want)
		}
		// No duplicate terms.
		seen := map[postings.TermID]bool{}
		for _, qt := range q {
			if seen[qt.Term] {
				t.Fatalf("refinement %d repeats term %d", i+1, qt.Term)
			}
			seen[qt.Term] = true
		}
	}
	// Each refinement extends the previous.
	for i := 1; i < len(seq.Refinements); i++ {
		prev, cur := seq.Refinements[i-1], seq.Refinements[i]
		for j := range prev {
			if prev[j] != cur[j] {
				t.Fatalf("refinement %d does not extend %d", i+1, i)
			}
		}
	}
	// Workload construction stays off the disk-read books.
	if st.Reads() != 0 {
		// The evaluate callback reads via a counted manager, so reads
		// from evaluation are fine; expansion scans must be quiet. We
		// can only check that *some* accounting happened sanely.
		t.Logf("counted reads from evaluation: %d", st.Reads())
	}
}

// TestFeedbackExpandsTopicallyRelevantTerms: the expansion should pick
// terms boosted in the topic's relevant documents (which dominate the
// top ranks) far more often than random vocabulary.
func TestFeedbackExpandsTopicallyRelevantTerms(t *testing.T) {
	ix, st, col := feedbackEnv(t)
	topic := col.Topics[0]
	topicTerm := make(map[postings.TermID]bool)
	for _, tt := range topic.Terms {
		if id, ok := ix.LookupTerm(tt.Term); ok {
			topicTerm[id] = true
		}
	}
	var initial eval.Query
	for _, tt := range topic.Terms[:3] {
		id, _ := ix.LookupTerm(tt.Term)
		initial = append(initial, eval.QueryTerm{Term: id, Fqt: tt.Fqt})
	}
	seq, err := feedbackSequence(ix, st, initial,
		feedbackOptions{Rounds: 3, AddPerRound: 3}, fullEvaluate(t, ix, st))
	if err != nil {
		t.Fatal(err)
	}
	final := seq.Refinements[len(seq.Refinements)-1]
	hits := 0
	for _, qt := range final[3:] { // expansion terms only
		if topicTerm[qt.Term] {
			hits++
		}
	}
	if hits == 0 {
		t.Error("feedback never rediscovered a topic term; expansion looks random")
	}
}

func TestFeedbackSequenceErrors(t *testing.T) {
	ix, st, _ := feedbackEnv(t)
	if _, err := feedbackSequence(ix, st, nil, feedbackOptions{}, fullEvaluate(t, ix, st)); err == nil {
		t.Error("empty initial query should fail")
	}
}

func TestFeedbackOptionsDefaults(t *testing.T) {
	var o feedbackOptions
	o.defaults()
	if o.Rounds != 5 || o.AddPerRound != refine.GroupSize || o.FeedbackDocs != 10 || o.MaxCandidateIDF != 12 {
		t.Errorf("defaults = %+v", o)
	}
}

// TestBuildFeedbackSequence: a feedback sequence seeded with three of
// a topic's terms grows past them, and its refinements run through a
// public Session over an index of the same collection.
func TestBuildFeedbackSequence(t *testing.T) {
	ix, st, col := feedbackEnv(t)
	q, err := refine.QueryFromTopic(ix, col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	seq, err := feedbackSequence(ix, st, q[:3], feedbackOptions{Rounds: 3}, fullEvaluate(t, ix, st))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Refinements) < 2 {
		t.Fatalf("refinements = %d", len(seq.Refinements))
	}
	last := seq.Refinements[len(seq.Refinements)-1]
	if len(last) <= 3 {
		t.Errorf("feedback never expanded the query: %d terms", len(last))
	}
	pub, err := bufir.NewIndex(col)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pub.NewSession(bufir.SessionConfig{EvalOptions: bufir.EvalOptions{Algorithm: bufir.BAF}, Policy: bufir.RAP, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, rq := range seq.Refinements {
		if _, err := s.Search(rq); err != nil {
			t.Fatal(err)
		}
	}
}
