package bufir_test

// Regression tests for the epoch invalidation contract: nothing
// computed against a dead generation is ever served after the index
// publishes a new one. Each published view gets its own pool, built
// cold, so a user's resubmission after a live commit or merge rebinds
// and reads the new generation's pages; within one generation it runs
// over the pool its earlier requests left warm. The session-level
// counterpart lives in TestIngestExactnessRefinement.

import (
	"context"
	"strings"
	"testing"

	"bufir"
)

func liveEngineFixture(t *testing.T) (*bufir.Index, *bufir.Engine) {
	t.Helper()
	// alpha and gamma appear in a strict subset of the documents so
	// their idf is positive and rankings are non-degenerate.
	docs := []bufir.Document{}
	for i := 0; i < 12; i++ {
		text := strings.Repeat("filler padding ", 2+i%3)
		if i%2 == 0 {
			text += strings.Repeat("alpha ", 1+i%3)
		}
		if i%3 == 0 {
			text += strings.Repeat("gamma ", 1+i%4)
		}
		docs = append(docs, bufir.Document{Name: "base" + string(rune('a'+i)), Text: text + "beta"})
	}
	ix, err := bufir.IndexDocuments(docs, bufir.IndexOptions{NumStopWords: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableLiveUpdates(bufir.LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	eng, err := ix.NewEngine(bufir.EngineConfig{
		EvalOptions: bufir.EvalOptions{Algorithm: bufir.DF, Unfiltered: true, TopN: 5},
		Workers:     1,
		BufferPages: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return ix, eng
}

func TestEngineRebindsOnEpochBump(t *testing.T) {
	ix, eng := liveEngineFixture(t)
	ctx := context.Background()
	q, err := ix.ParseQuery("alpha gamma")
	if err != nil {
		t.Fatal(err)
	}

	r1, err := eng.SearchContext(ctx, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.PagesRead == 0 {
		t.Fatal("first evaluation read nothing from a cold pool")
	}

	// Same user, same query, same generation: the pool holds every page
	// the first evaluation read.
	r2, err := eng.SearchContext(ctx, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.PagesRead != 0 {
		t.Fatalf("resubmission within a generation read %d pages, want 0", r2.PagesRead)
	}
	if r2.Epoch != r1.Epoch {
		t.Fatalf("resubmission's epoch %d != original %d", r2.Epoch, r1.Epoch)
	}

	// Publish a new generation whose content reshapes the answer.
	doc, err := ix.Add("fresh", strings.Repeat("alpha gamma ", 20))
	if err != nil {
		t.Fatal(err)
	}

	// The resubmission must rebind to the new generation's cold pool
	// and see the ingested document.
	r3, err := eng.SearchContext(ctx, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.PagesRead == 0 {
		t.Fatal("resubmission across an epoch bump read no page of the new generation")
	}
	if r3.Epoch != eng.Epoch() {
		t.Fatalf("post-bump result stamped epoch %d, index at %d", r3.Epoch, eng.Epoch())
	}
	if r3.Epoch <= r1.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", r1.Epoch, r3.Epoch)
	}
	found := false
	for _, d := range r3.Top {
		if d.Doc == doc {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-bump answer misses the ingested document: %+v", r3.Top)
	}

	// Within the NEW generation the pool is warm again.
	r4, err := eng.SearchContext(ctx, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if r4.PagesRead != 0 {
		t.Fatalf("resubmission within the new generation read %d pages, want 0", r4.PagesRead)
	}
	if r4.Epoch != r3.Epoch {
		t.Fatalf("new-generation epoch %d != %d", r4.Epoch, r3.Epoch)
	}
}

// A merge publishes a new generation with identical logical content;
// the user must still rebind (the contract is generational, not
// content-based), and the recomputed answer must be identical.
func TestEngineRebindsOnMerge(t *testing.T) {
	ix, eng := liveEngineFixture(t)
	ctx := context.Background()
	if _, err := ix.Add("fresh", "alpha beta gamma"); err != nil {
		t.Fatal(err)
	}
	q, err := ix.ParseQuery("alpha gamma")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := eng.SearchContext(ctx, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.MergeContext(ctx); err != nil {
		t.Fatal(err)
	}
	r2, err := eng.SearchContext(ctx, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.PagesRead == 0 {
		t.Fatal("post-merge resubmission read no page of the merged generation")
	}
	if r2.Epoch <= r1.Epoch {
		t.Fatalf("merge did not advance the epoch: %d -> %d", r1.Epoch, r2.Epoch)
	}
	if len(r1.Top) != len(r2.Top) {
		t.Fatalf("merge changed the answer length: %d -> %d", len(r1.Top), len(r2.Top))
	}
	for i := range r1.Top {
		if r1.Top[i] != r2.Top[i] {
			t.Fatalf("merge changed the answer at rank %d: %+v -> %+v", i+1, r1.Top[i], r2.Top[i])
		}
	}
}
