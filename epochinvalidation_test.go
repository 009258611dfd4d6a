package bufir_test

// Regression tests for the epoch invalidation contract: nothing
// computed against a dead generation — a refinement snapshot, a cached
// ranking — is ever served after the index publishes a new one. The
// engine's result-cache key includes the binding epoch, so a live
// commit makes every cached entry unreachable rather than merely
// suspect; the session-level snapshot counterpart lives in
// TestIngestExactnessRefinement.

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
		Refine:      bufir.RefineOptions{Incremental: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return ix, eng
}

func TestEngineResultCacheInvalidatedByEpochBump(t *testing.T) {
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
	if r1.Cached {
		t.Fatal("first evaluation reported Cached")
	}

	// Same user, same query, same generation: served from the cache,
	// stamped with the generation it was computed against.
	r2, err := eng.SearchContext(ctx, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("resubmission within a generation not served from cache")
	}
	if r2.Epoch != r1.Epoch {
		t.Fatalf("cached result's epoch %d != original %d", r2.Epoch, r1.Epoch)
	}

	// Publish a new generation whose content reshapes the answer.
	doc, err := ix.Add("fresh", strings.Repeat("alpha gamma ", 20))
	if err != nil {
		t.Fatal(err)
	}

	// The cached ranking is keyed on the dead epoch: the resubmission
	// must evaluate cold against the new generation and see the
	// ingested document, never replay the stale entry.
	r3, err := eng.SearchContext(ctx, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("resubmission across an epoch bump served a stale cached ranking")
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
	if inv := eng.Stats().RefineInvalidations; inv == 0 {
		t.Fatal("rebind across the epoch bump recorded no RefineInvalidations")
	}

	// Within the NEW generation the cache works again — keyed on the
	// new epoch.
	r4, err := eng.SearchContext(ctx, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Cached {
		t.Fatal("resubmission within the new generation not served from cache")
	}
	if r4.Epoch != r3.Epoch {
		t.Fatalf("new-generation cached epoch %d != %d", r4.Epoch, r3.Epoch)
	}
}

// A merge publishes a new generation with identical logical content;
// the cache must still invalidate (the contract is generational, not
// content-based), and the recomputed answer must be identical.
func TestEngineResultCacheInvalidatedByMerge(t *testing.T) {
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
	if r2.Cached {
		t.Fatal("post-merge resubmission served the dead generation's cache entry")
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
