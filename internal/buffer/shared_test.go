package buffer

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"bufir/internal/postings"
	"bufir/internal/storage"
)

func sharedEnv(t *testing.T) (*SharedPool, *postings.Index) {
	t.Helper()
	ix, st := testEnv(t)
	pool, err := NewShardedSharedPool(3, 1, st, ix, func(int) Policy { return NewRAP() })
	if err != nil {
		t.Fatal(err)
	}
	return pool, ix
}

func TestSharedPoolCombinesWeights(t *testing.T) {
	pool, _ := sharedEnv(t)
	u0 := pool.UserView(0)
	u1 := pool.UserView(1)

	// User 0 queries term 0; user 1 queries term 1.
	u0.SetQuery(QueryWeights{0: 1})
	u1.SetQuery(QueryWeights{1: 2})

	// Load one page for each user's term plus an unrelated term-2
	// page; under the combined weights, the term-2 page (weight 0 for
	// every user) must be the victim.
	for _, p := range []postings.PageID{0, 4, 6} { // term0, term1, term2(tiny)
		f, err := pin(u0, p)
		if err != nil {
			t.Fatal(err)
		}
		u0.Unpin(f)
	}
	f, err := pin(u1, 1) // term 0's second page: forces one eviction
	if err != nil {
		t.Fatal(err)
	}
	u1.Unpin(f)
	m := pool.Manager()
	if m.Contains(6) {
		t.Error("combined RAP kept the page no user's query values")
	}
	if !m.Contains(0) || !m.Contains(4) {
		t.Error("combined RAP evicted a page valued by an active user")
	}
}

func TestSharedPoolCloseReleasesWeights(t *testing.T) {
	pool, _ := sharedEnv(t)
	u0 := pool.UserView(0)
	u1 := pool.UserView(1)
	u1.SetQuery(QueryWeights{1: 5})
	u0.SetQuery(QueryWeights{0: 1})
	// Fill: term 1 page (valued by u1), two term 0 pages (valued u0).
	for _, p := range []postings.PageID{4, 0, 1} {
		f, err := pin(u0, p)
		if err != nil {
			t.Fatal(err)
		}
		u0.Unpin(f)
	}
	// u1 leaves: term 1's page loses its protection...
	u1.Close()
	// ...at once: the withdrawal itself re-keys term 1's group.
	f, err := pin(u0, 2)
	if err != nil {
		t.Fatal(err)
	}
	u0.Unpin(f)
	if pool.Manager().Contains(4) {
		t.Error("departed user's page survived over an active user's")
	}
}

func TestSharedPoolStatsShared(t *testing.T) {
	pool, _ := sharedEnv(t)
	u0, u1 := pool.UserView(0), pool.UserView(1)
	f, err := pin(u0, 0)
	if err != nil {
		t.Fatal(err)
	}
	u0.Unpin(f)
	f, err = pin(u1, 0) // hit: loaded by the other user
	if err != nil {
		t.Fatal(err)
	}
	u1.Unpin(f)
	s := u1.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss (cross-user reuse)", s)
	}
}

// TestSharedPoolConcurrentUsers: simultaneous users with distinct
// queries must not corrupt the pool (run with -race).
func TestSharedPoolConcurrentUsers(t *testing.T) {
	ix, st := testEnv(t)
	pool, err := NewShardedSharedPool(4, 1, st, ix, func(int) Policy { return NewRAP() })
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < 6; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			uv := pool.UserView(u)
			term := postings.TermID(u % 3)
			uv.SetQuery(QueryWeights{term: 1})
			for i := 0; i < 200; i++ {
				p := postings.PageID((u + i) % 7)
				f, err := pin(uv, p)
				if err != nil {
					continue // all-pinned is possible under contention
				}
				uv.Unpin(f)
			}
			uv.Close()
		}(u)
	}
	wg.Wait()
	if pool.Manager().InUse() > 4 {
		t.Error("pool exceeded capacity")
	}
}

// TestAnnouncementsNotLost: weight deltas are not idempotent, so an
// announcement applied out of order, twice or not at all on one latch
// shard would leave that shard's table wrong for good. Goroutines race
// SetQuery and Close over a small set of shared terms (and fetch, so
// groups come and go while they are re-keyed); at quiescence every
// shard's table must equal the per-term maximum over the users' final
// queries, RAP's structure must be whole, and after the last Close the
// registry and every table must be empty. Run with -race.
func TestAnnouncementsNotLost(t *testing.T) {
	ix, pages := goldenIndex(t)
	const users, rounds, shards = 8, 400, 2
	pool, err := NewShardedSharedPool(64, shards, storage.NewStore(pages), ix, func(int) Policy { return NewRAP() })
	if err != nil {
		t.Fatal(err)
	}
	mgr := pool.Manager()
	final := make([]QueryWeights, users)
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(u)))
			uv := pool.UserView(u)
			for i := 0; i < rounds; i++ {
				if r.Intn(10) == 0 {
					final[u] = nil
					uv.Close()
				} else {
					w := make(QueryWeights)
					for n := 1 + r.Intn(5); n > 0; n-- {
						w[postings.TermID(r.Intn(12))] = float64(r.Intn(4)) // 0: held, but worthless
					}
					final[u] = w
					uv.SetQuery(w)
				}
				tm := postings.TermID(r.Intn(12))
				if f, err := pin(uv, ix.PageOf(tm, r.Intn(ix.Terms[tm].NumPages))); err == nil {
					uv.Unpin(f)
				}
			}
		}(u)
	}
	wg.Wait()

	tablesEqual := func(when string, want map[postings.TermID]float64) {
		t.Helper()
		if !reflect.DeepEqual(mgr.queries.max, want) {
			t.Errorf("%s: registry maxima %v, want %v", when, mgr.queries.max, want)
		}
		for i := range mgr.shards {
			pol := mgr.shards[i].policy.(*RAP)
			if !reflect.DeepEqual(pol.weight, want) {
				t.Errorf("%s: shard %d holds %v, want %v", when, i, pol.weight, want)
			}
			checkRAPInvariants(t, i, pol, shardFrames(&mgr.shards[i]))
		}
	}
	want := make(map[postings.TermID]float64)
	registered := 0
	for _, w := range final {
		if w != nil {
			registered++
		}
		for tm, v := range w {
			if v > want[tm] {
				want[tm] = v
			}
		}
	}
	if got := pool.ActiveUsers(); got != registered {
		t.Errorf("ActiveUsers = %d, %d users ended with a query", got, registered)
	}
	tablesEqual("at quiescence", want)

	for u := 0; u < users; u++ {
		pool.UserView(u).Close()
	}
	if got := pool.ActiveUsers(); got != 0 {
		t.Errorf("ActiveUsers = %d after the last Close", got)
	}
	tablesEqual("after the last Close", map[postings.TermID]float64{})
}
