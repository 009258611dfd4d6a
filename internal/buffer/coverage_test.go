package buffer

import "testing"

// TestPolicySurfaces covers the small Policy-interface methods that
// the behavioral tests never need to call directly.
func TestPolicySurfaces(t *testing.T) {
	cases := []struct {
		pol  Policy
		name string
	}{
		{NewLRU(), "LRU"},
		{NewMRU(), "MRU"},
		{NewRAP(), "RAP"},
		{NewRAPHeadFirst(), "RAP-headfirst"},
		{NewLRUK(2), "LRU-2"},
		{NewTwoQ(8), "2Q"},
	}
	for _, c := range cases {
		if got := c.pol.Name(); got != c.name {
			t.Errorf("Name() = %q, want %q", got, c.name)
		}
		c.pol.SetQuery([]TermWeight{{Term: 0, Weight: 0}}) // must not panic on any policy
	}
}

func TestManagerAccessors(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(3, st, ix, NewLRU())
	if m.Capacity() != 3 {
		t.Errorf("Capacity = %d", m.Capacity())
	}
	if m.Policy() != "LRU" {
		t.Errorf("Policy = %q", m.Policy())
	}
	base := m.Stats()
	f := get(t, m, 0)
	if len(f.Data()) == 0 {
		t.Error("Data empty while pinned")
	}
	m.Unpin(f)
	if got := m.Stats(); got.Misses != base.Misses+1 || got.Hits != base.Hits {
		t.Errorf("Stats after one cold fetch = %+v, before %+v", got, base)
	}
}

func TestUserViewResidentPages(t *testing.T) {
	ix, st := testEnv(t)
	pool, err := NewShardedSharedPool(4, 1, st, ix, func(int) Policy { return NewRAP() })
	if err != nil {
		t.Fatal(err)
	}
	uv := pool.UserView(0)
	f, err := pin(uv, 0)
	if err != nil {
		t.Fatal(err)
	}
	uv.Unpin(f)
	if uv.ResidentPages(0) != 1 {
		t.Errorf("ResidentPages = %d", uv.ResidentPages(0))
	}
}

// TestRAPHeadFirstVariantBehavior: among equal-value pages the
// head-first variant evicts the LOWER offset — the opposite of RAP.
func TestRAPHeadFirstVariantBehavior(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(2, st, ix, NewRAPHeadFirst())
	m.SetQuery(QueryWeights{}) // all values 0
	touch(t, m, 4)             // term 1 page 0
	touch(t, m, 5)             // term 1 page 1
	touch(t, m, 0)             // forces one eviction
	if m.Contains(4) || !m.Contains(5) {
		t.Errorf("head-first should evict offset 0 first: 4=%v 5=%v",
			m.Contains(4), m.Contains(5))
	}
}

// TestTwoQVictimFallbacks exercises the cross-queue fallback paths:
// when the preferred queue has only pinned pages the other queue
// serves the victim.
func TestTwoQVictimFallbacks(t *testing.T) {
	ix, st := testEnv(t)
	pol := NewTwoQ(8) // kin 2
	m, _ := newSerial(2, st, ix, pol)
	// Fill probation with two pages and pin both.
	f0 := get(t, m, 0)
	f1 := get(t, m, 1)
	// Pool full, both pinned, Am empty: no victim anywhere.
	if _, err := pin(m, 2); err == nil {
		t.Fatal("expected ErrNoVictim")
	}
	m.Unpin(f1)
	// Now page 1 is the only unpinned; probation within Kin (2 <= 2)
	// and Am empty forces the a1in fallback.
	touch(t, m, 2)
	if m.Contains(1) {
		t.Error("expected page 1 evicted via fallback")
	}
	m.Unpin(f0)
}
