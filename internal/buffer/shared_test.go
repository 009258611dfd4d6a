package buffer

import (
	"sync"
	"testing"

	"bufir/internal/postings"
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
	u0.SetQuery(func(tm postings.TermID) float64 {
		if tm == 0 {
			return 1
		}
		return 0
	})
	u1.SetQuery(func(tm postings.TermID) float64 {
		if tm == 1 {
			return 2
		}
		return 0
	})

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
	u1.SetQuery(func(tm postings.TermID) float64 {
		if tm == 1 {
			return 5
		}
		return 0
	})
	u0.SetQuery(func(tm postings.TermID) float64 {
		if tm == 0 {
			return 1
		}
		return 0
	})
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
	// ...but RAP only re-keys on the next SetQuery; u0 re-announces.
	u0.SetQuery(func(tm postings.TermID) float64 {
		if tm == 0 {
			return 1
		}
		return 0
	})
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
			uv.SetQuery(func(tm postings.TermID) float64 {
				if tm == term {
					return 1
				}
				return 0
			})
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
