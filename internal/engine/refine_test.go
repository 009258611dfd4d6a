package engine_test

import (
	"context"
	"sort"
	"sync"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/engine"
	"bufir/internal/eval"
	"bufir/internal/refine"
	"bufir/internal/storage"
)

// refineEngine builds an Engine with the incremental-refinement path
// enabled (snapshot resume plus the per-user result cache).
func refineEngine(t *testing.T, workers int) (*engine.Engine, *buffer.SharedPool) {
	t.Helper()
	e := testEnv(t)
	pool := rapPool(t, e, e.Idx.NumPagesTotal+8, 1)
	eng, err := newEngine(e, pool, engine.Config{
		Workers: workers,
		Algo:    eval.DF,
		Params:  e.Params(),
		Refine:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, pool
}

// dfOrdered returns the full topic query sorted the way DF processes
// it (idf descending, TermID ascending), so prefixes of it form
// ADD-ONLY steps whose added terms extend the processed prefix.
func dfOrdered(t *testing.T, ti int) eval.Query {
	t.Helper()
	e := testEnv(t)
	seq, err := e.Sequence(ti, refine.AddOnly)
	if err != nil {
		t.Fatal(err)
	}
	q := append(eval.Query{}, seq.Refinements[len(seq.Refinements)-1]...)
	sort.SliceStable(q, func(i, j int) bool {
		a, b := e.Idx.IDF(q[i].Term), e.Idx.IDF(q[j].Term)
		if a != b {
			return a > b
		}
		return q[i].Term < q[j].Term
	})
	return q
}

// coldResult evaluates q on a fresh private pool — the reference every
// engine answer must match bit-for-bit.
func coldResult(t *testing.T, q eval.Query) *eval.Result {
	t.Helper()
	e := testEnv(t)
	mgr, err := buffer.NewManager(e.Idx.NumPagesTotal+8, 1, e.Store, e.Idx, func(int) buffer.Policy { return buffer.NewLRU() })
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eval.NewEvaluator(e.Idx, mgr, e.Conv, e.Params())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Evaluate(eval.DF, q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameAnswer(t *testing.T, label string, got, want *eval.Result) {
	t.Helper()
	if !sameTop(got.Top, want.Top) {
		t.Fatalf("%s: rankings differ", label)
	}
	if got.Accumulators != want.Accumulators || got.Smax != want.Smax {
		t.Fatalf("%s: accumulators/smax %d/%v, want %d/%v",
			label, got.Accumulators, got.Smax, want.Accumulators, want.Smax)
	}
}

// TestRefineCacheHit: resubmitting an identical query — and any
// permutation or split-duplicate spelling of it — answers from the
// cache: Result.Cached, zero cost counters (preserving the PagesRead ==
// pool-misses invariant), hit/miss counters visible.
func TestRefineCacheHit(t *testing.T) {
	eng, pool := refineEngine(t, 1)
	defer eng.Close()
	q := dfOrdered(t, 0)

	first, err := eng.SearchContext(context.Background(), 0, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission cannot be a cache hit")
	}

	// Identical, permuted, and split-duplicate resubmissions all hit.
	perm := append(eval.Query{}, q...)
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	split := append(eval.Query{}, q...)
	split[0].Fqt--
	split = append(split, eval.QueryTerm{Term: q[0].Term, Fqt: 1})
	if split[0].Fqt == 0 {
		split = split[1:]
	}
	for name, resub := range map[string]eval.Query{"identical": q, "permuted": perm, "split": split} {
		res, err := eng.SearchContext(context.Background(), 0, resub)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("%s resubmission missed the cache", name)
		}
		if res.PagesRead != 0 || res.PagesProcessed != 0 || res.EntriesProcessed != 0 {
			t.Fatalf("%s: cached answer charged cost: %d read / %d processed / %d entries",
				name, res.PagesRead, res.PagesProcessed, res.EntriesProcessed)
		}
		assertSameAnswer(t, name, res, first)
	}

	c := eng.Counters()
	if c.RefineHits != 3 || c.RefineMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", c.RefineHits, c.RefineMisses)
	}
	// Cached answers charge no reads, so the engine-side PagesRead sum
	// still equals the pool's misses.
	if got, want := int64(first.PagesRead), pool.Manager().Stats().Misses; got != want {
		t.Fatalf("PagesRead sum %d, pool misses %d", got, want)
	}
}

// TestRefineResumeAcrossSubmits: a user growing a query across
// separate Submit calls resumes from the carried snapshot — fewer
// pages processed than cold, counters record the reuse, answers stay
// bit-identical to cold.
func TestRefineResumeAcrossSubmits(t *testing.T) {
	eng, _ := refineEngine(t, 4)
	defer eng.Close()
	q := dfOrdered(t, 1)
	if len(q) < 4 {
		t.Skip("topic too small")
	}
	cut := len(q) / 2

	res, err := eng.SearchContext(context.Background(), 3, q[:cut])
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, "prefix", res, coldResult(t, q[:cut]))

	res, err = eng.SearchContext(context.Background(), 3, q)
	if err != nil {
		t.Fatal(err)
	}
	cold := coldResult(t, q)
	assertSameAnswer(t, "grown", res, cold)
	if res.ReusedRounds != cut {
		t.Fatalf("ReusedRounds = %d, want %d", res.ReusedRounds, cut)
	}
	if res.PagesProcessed >= cold.PagesProcessed {
		t.Fatalf("resumed step processed %d pages, cold %d", res.PagesProcessed, cold.PagesProcessed)
	}
	c := eng.Counters()
	if c.RefineResumes != 1 || c.RefineReusedRounds != int64(cut) {
		t.Fatalf("resumes/reused = %d/%d, want 1/%d", c.RefineResumes, c.RefineReusedRounds, cut)
	}

	// Shrinking the query is not ADD-ONLY: the snapshot is dropped,
	// the evaluation runs cold, and the invalidation is counted.
	res, err = eng.SearchContext(context.Background(), 3, q[1:])
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, "shrunk", res, coldResult(t, q[1:]))
	if res.ReusedRounds != 0 {
		t.Fatalf("non-ADD-ONLY step reused %d rounds", res.ReusedRounds)
	}
	if c := eng.Counters(); c.RefineInvalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", c.RefineInvalidations)
	}
}

// TestRefineCacheLRUBound: with the cache bounded at 2 entries, the
// third distinct query evicts the least-recently-used entry; the
// evicted query misses on resubmission while the fresher one still
// hits.
func TestRefineCacheLRUBound(t *testing.T) {
	eng, _ := refineEngine(t, 1)
	engine.SetRefineCacheEntries(eng, 2)
	defer eng.Close()
	q := dfOrdered(t, 0)
	if len(q) < 3 {
		t.Skip("topic too small")
	}
	qA, qB, qC := q[:1], q[:2], q[:3]

	for _, sub := range []eval.Query{qA, qB, qC} { // cache: {B, C}; A evicted
		if _, err := eng.SearchContext(context.Background(), 0, sub); err != nil {
			t.Fatal(err)
		}
	}
	resA, err := eng.SearchContext(context.Background(), 0, qA) // miss; cache: {C, A}; B evicted
	if err != nil {
		t.Fatal(err)
	}
	if resA.Cached {
		t.Fatal("evicted entry still hit the cache")
	}
	resC, err := eng.SearchContext(context.Background(), 0, qC) // most recent survivor: hit
	if err != nil {
		t.Fatal(err)
	}
	if !resC.Cached {
		t.Fatal("recently used entry was evicted")
	}
	c := eng.Counters()
	if c.RefineHits != 1 || c.RefineMisses != 4 {
		t.Fatalf("hits/misses = %d/%d, want 1/4", c.RefineHits, c.RefineMisses)
	}
}

// TestRefineCachePerUser: the cache key includes the user — one user's
// answers never leak into another's stream, but each user's own
// resubmission hits.
func TestRefineCachePerUser(t *testing.T) {
	eng, _ := refineEngine(t, 2)
	defer eng.Close()
	q := dfOrdered(t, 0)

	if _, err := eng.SearchContext(context.Background(), 0, q); err != nil {
		t.Fatal(err)
	}
	other, err := eng.SearchContext(context.Background(), 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Fatal("user 1 hit user 0's cache entry")
	}
	again, err := eng.SearchContext(context.Background(), 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("user 1's own resubmission missed")
	}
}

// TestRefineDegradedNotCached: a degraded answer (term rounds lost to
// I/O faults within the budget) must not be served from the cache to
// a later, healthy resubmission.
func TestRefineDegradedNotCached(t *testing.T) {
	e := testEnv(t)
	q := dfOrdered(t, 1)
	// The first read of the query's first page fails, then the page
	// heals: the first answer loses a term round, the resubmission
	// meets a healthy store.
	first := int(e.Idx.PageOf(q[0].Term, 0))
	fs, err := storage.NewFaultStore(e.Store, 1, []storage.FaultRule{
		{Kind: storage.FaultTransient, FirstPage: first, LastPage: first, First: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewShardedSharedPool(e.Idx.NumPagesTotal+8, 1, fs, e.Idx,
		func(int) buffer.Policy { return buffer.NewRAP() })
	if err != nil {
		t.Fatal(err)
	}
	p := e.Params()
	p.FaultBudget = 100
	eng, err := newEngine(e, pool, engine.Config{
		Workers: 1,
		Algo:    eval.DF,
		Params:  p,
		Refine:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	res, err := eng.SearchContext(context.Background(), 0, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("the faulted first page did not degrade the first answer")
	}
	clean, err := eng.SearchContext(context.Background(), 0, q)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Cached {
		t.Fatal("degraded answer was cached and replayed")
	}
	if clean.Degraded {
		t.Fatal("healthy resubmission still degraded")
	}
}

// TestRefineConcurrentUsers exercises the snapshot/cache path from
// many users at once under -race: per-user answers stay bit-identical
// to cold, and hits+misses account for every submission.
func TestRefineConcurrentUsers(t *testing.T) {
	eng, _ := refineEngine(t, 8)
	defer eng.Close()
	const users = 6
	q := dfOrdered(t, 0)
	if len(q) < 3 {
		t.Skip("topic too small")
	}
	steps := []eval.Query{q[:1], q[:2], q[:3], q[:3]} // grow, grow, repeat

	var wg sync.WaitGroup
	errs := make([]error, users)
	finals := make([]*eval.Result, users)
	for u := 0; u < users; u++ {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, sub := range steps {
				res, err := eng.SearchContext(context.Background(), u, sub)
				if err != nil {
					errs[u] = err
					return
				}
				finals[u] = res
			}
		}()
	}
	wg.Wait()

	cold := coldResult(t, q[:3])
	for u := 0; u < users; u++ {
		if errs[u] != nil {
			t.Fatalf("user %d: %v", u, errs[u])
		}
		assertSameAnswer(t, "final", finals[u], cold)
		if !finals[u].Cached {
			t.Errorf("user %d: repeated final query did not hit the cache", u)
		}
	}
	c := eng.Counters()
	if c.RefineHits+c.RefineMisses != int64(users*len(steps)) {
		t.Fatalf("hits+misses = %d, want %d", c.RefineHits+c.RefineMisses, users*len(steps))
	}
	if c.RefineHits < users {
		t.Fatalf("hits = %d, want at least one per user", c.RefineHits)
	}
}
