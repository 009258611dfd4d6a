package experiments

import (
	"context"
	"errors"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/buffer/policytest"
	"bufir/internal/postings"
)

func TestLRUKBasicEviction(t *testing.T) {
	m := policytest.Pool(t, 2, newLRU2())
	policytest.Touch(t, m, 0)
	policytest.Touch(t, m, 1)
	// Page 0 gets a second reference: its 2-distance is now finite,
	// page 1's is infinite, so page 1 is the victim.
	policytest.Touch(t, m, 0)
	policytest.Touch(t, m, 2)
	if m.Contains(1) || !m.Contains(0) {
		t.Errorf("LRU-2 evicted wrong page: 0=%v 1=%v 2=%v",
			m.Contains(0), m.Contains(1), m.Contains(2))
	}
}

func TestLRUKSingleReferenceTieBreaksLRU(t *testing.T) {
	m := policytest.Pool(t, 2, newLRU2())
	policytest.Touch(t, m, 0) // one reference each: both infinitely distant
	policytest.Touch(t, m, 1)
	policytest.Touch(t, m, 2) // LRU among singles: evict page 0
	if m.Contains(0) || !m.Contains(1) {
		t.Errorf("LRU-2 tie-break wrong: 0=%v 1=%v", m.Contains(0), m.Contains(1))
	}
}

func TestTwoQProbationAndPromotion(t *testing.T) {
	// Policy sized for 8 frames (Kin=2, Kout=4) over a 3-frame pool so
	// ghosts survive long enough to observe promotion.
	pol := newTwoQ(8)
	m := policytest.Pool(t, 3, pol)
	// Fill: all three pages sit in probation (A1in).
	policytest.Touch(t, m, 0)
	policytest.Touch(t, m, 1)
	policytest.Touch(t, m, 2)
	// Probation (3) exceeds Kin (2): next miss evicts the FIFO tail
	// (page 0) and leaves a ghost for it.
	policytest.Touch(t, m, 3)
	if m.Contains(0) {
		t.Fatal("2Q should evict the oldest probation page")
	}
	// Re-referencing page 0 while its ghost lives promotes it to Am.
	policytest.Touch(t, m, 0) // evicts 1 from probation; ghost hit -> Am
	if pol.nAm != 1 {
		t.Errorf("Am size = %d, want 1 (page 0 promoted)", pol.nAm)
	}
	f := policytest.Get(t, m, 0)
	defer m.Unpin(f)
	if pol.inA1in[f] {
		t.Error("page 0 should not be in probation after promotion")
	}
}

func TestTwoQProbationHitDoesNotPromote(t *testing.T) {
	pol := newTwoQ(4)
	m := policytest.Pool(t, 4, pol)
	policytest.Touch(t, m, 0)
	policytest.Touch(t, m, 0) // hit in probation: stays probationary
	if pol.nA1in != 1 || pol.nAm != 0 {
		t.Errorf("a1in=%d am=%d, want 1/0", pol.nA1in, pol.nAm)
	}
}

// TestSequentialScanDefeatsAll: on a cyclic sequential scan larger
// than the pool — the paper's model of refinement access — LRU, LRU-2
// and 2Q all degrade to ~zero hits ([Sto81] and §3.3 footnote 7).
func TestSequentialScanDefeatsAll(t *testing.T) {
	for _, pol := range []buffer.Policy{buffer.NewLRU(), newLRU2(), newTwoQ(4)} {
		m := policytest.Pool(t, 4, pol)
		// Three full sequential passes over 7 pages with 4 frames.
		for pass := 0; pass < 3; pass++ {
			for p := postings.PageID(0); p < 7; p++ {
				policytest.Touch(t, m, p)
			}
		}
		s := m.Stats()
		hitRate := float64(s.Hits) / float64(s.Hits+s.Misses)
		if hitRate > 0.25 {
			t.Errorf("%s: hit rate %.2f on cyclic scan; expected near zero", pol.Name(), hitRate)
		}
	}
}

// TestTwoQVictimFallbacks exercises the cross-queue fallback paths:
// when the preferred queue has only pinned pages the other queue
// serves the victim.
func TestTwoQVictimFallbacks(t *testing.T) {
	pol := newTwoQ(8) // kin 2
	m := policytest.Pool(t, 2, pol)
	// Fill probation with two pages and pin both.
	f0 := policytest.Get(t, m, 0)
	f1 := policytest.Get(t, m, 1)
	// Pool full, both pinned, Am empty: no victim anywhere.
	if _, _, err := m.FetchContext(context.Background(), 2); err == nil {
		t.Fatal("expected ErrNoVictim")
	}
	m.Unpin(f1)
	// Now page 1 is the only unpinned; probation within Kin (2 <= 2)
	// and Am empty forces the a1in fallback.
	policytest.Touch(t, m, 2)
	if m.Contains(1) {
		t.Error("expected page 1 evicted via fallback")
	}
	m.Unpin(f0)
}

// TestLRU2Name: NewPolicy's LRU-K is built with K = 2 only, and names
// itself after it.
func TestLRU2Name(t *testing.T) {
	if got := newLRU2().Name(); got != "LRU-2" {
		t.Errorf("Name = %q, want LRU-2", got)
	}
}

// TestTwoQGhostBounded: A1out holds at most Kout = capacity/2 ghosts
// and expires the oldest first.
func TestTwoQGhostBounded(t *testing.T) {
	p := newTwoQ(4) // kout = 2
	for id := postings.PageID(0); id < 10; id++ {
		p.ghosts.Add(id, 0)
	}
	if p.ghosts.Len() > 2 {
		t.Errorf("ghost grew beyond Kout: %d", p.ghosts.Len())
	}
	// Oldest ghosts expired.
	if _, ok := p.ghosts.Hit(0); ok {
		t.Error("oldest ghost should have expired")
	}
	if _, ok := p.ghosts.Hit(9); !ok {
		t.Error("newest ghost should be live")
	}
}

// TestTwoQGhostMemoryBounded drives the policy through a long churn of
// unique pages — the workload that made a slice-based A1out grow its
// backing array without bound — and checks the ghost ring stays at its
// configured size throughout.
func TestTwoQGhostMemoryBounded(t *testing.T) {
	const capacity, kout = 8, 4
	pol := newTwoQ(capacity)
	for i := 0; i < 50000; i++ {
		if i >= capacity { // full pool: evict one before admitting
			v := pol.Victim()
			if v == nil {
				t.Fatal("no victim with a full unpinned pool")
			}
			pol.Removed(v)
		}
		pol.Admitted(&buffer.Frame{Page: postings.PageID(i), Offset: int32(i)})
		if got := pol.ghosts.Len(); got > kout {
			t.Fatalf("ghost entries = %d > kout %d at step %d", got, kout, i)
		}
		if got := pol.ghosts.Cap(); got != kout {
			t.Fatalf("ghost ring capacity drifted to %d, want %d", got, kout)
		}
	}
}

// TestTwoQFlushLeavesNoGhosts: Flush tears the pool down — it is not
// an eviction, so no removed page may enter A1out, and a page fetched
// again afterwards is on probation like any cold page.
func TestTwoQFlushLeavesNoGhosts(t *testing.T) {
	pol := newTwoQ(8)
	m := policytest.Pool(t, 8, pol)
	for p := postings.PageID(0); p < 7; p++ { // fits: no evictions
		policytest.Touch(t, m, p)
	}
	m.Flush()
	if n := pol.ghosts.Len(); n != 0 {
		t.Fatalf("ghosts after Flush = %d, want 0", n)
	}
	f := policytest.Get(t, m, 3)
	defer m.Unpin(f)
	if !pol.inA1in[f] {
		t.Fatal("page readmitted after Flush skipped probation (phantom ghost)")
	}
}

// failFirstRead fails the first read of page fail with errInjected and
// serves every other read from inner.
type failFirstRead struct {
	inner  buffer.PageReader
	fail   postings.PageID
	failed bool
}

var errInjected = errors.New("injected read error")

func (s *failFirstRead) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	if id == s.fail && !s.failed {
		s.failed = true
		return nil, errInjected
	}
	return s.inner.ReadContext(ctx, id)
}

// TestTwoQFaultInvalidationLeavesNoGhosts: a fault-poisoned frame is
// invalidated via Removed with no preceding Victim — the reserved
// frame never held data, so its page must not be remembered as a hot
// eviction, and the page readmitted on retry enters probation.
func TestTwoQFaultInvalidationLeavesNoGhosts(t *testing.T) {
	ix, st := policytest.Env(t)
	var pol *twoQ
	m, err := buffer.NewManager(4, 1, &failFirstRead{inner: st, fail: 2}, ix, func(capacity int) buffer.Policy {
		pol = newTwoQ(capacity)
		return pol
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.FetchContext(context.Background(), 2); !errors.Is(err, errInjected) {
		t.Fatalf("Fetch(2) = %v, want the injected fault", err)
	}
	if n := pol.ghosts.Len(); n != 0 {
		t.Fatalf("ghosts after failed-load invalidation = %d, want 0", n)
	}
	f := policytest.Get(t, m, 2)
	defer m.Unpin(f)
	if !pol.inA1in[f] {
		t.Fatal("page readmitted after fault invalidation skipped probation (phantom ghost)")
	}
}
