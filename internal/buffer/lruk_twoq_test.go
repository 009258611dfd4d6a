package buffer

import (
	"testing"

	"bufir/internal/postings"
)

func TestLRUKBasicEviction(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(2, st, ix, NewLRUK(2))
	touch(t, m, 0)
	touch(t, m, 1)
	// Page 0 gets a second reference: its 2-distance is now finite,
	// page 1's is infinite, so page 1 is the victim.
	touch(t, m, 0)
	touch(t, m, 2)
	if m.Contains(1) || !m.Contains(0) {
		t.Errorf("LRU-2 evicted wrong page: 0=%v 1=%v 2=%v",
			m.Contains(0), m.Contains(1), m.Contains(2))
	}
}

func TestLRUKSingleReferenceTieBreaksLRU(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(2, st, ix, NewLRUK(2))
	touch(t, m, 0) // one reference each: both infinitely distant
	touch(t, m, 1)
	touch(t, m, 2) // LRU among singles: evict page 0
	if m.Contains(0) || !m.Contains(1) {
		t.Errorf("LRU-2 tie-break wrong: 0=%v 1=%v", m.Contains(0), m.Contains(1))
	}
}

func TestLRUKDegeneratesToLRUWithK1(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(2, st, ix, NewLRUK(1))
	touch(t, m, 0)
	touch(t, m, 1)
	touch(t, m, 0) // refresh 0
	touch(t, m, 2) // k=1: evict least recently used = 1
	if m.Contains(1) || !m.Contains(0) {
		t.Error("LRU-1 should behave as LRU")
	}
}

func TestLRUKNames(t *testing.T) {
	if NewLRUK(2).Name() != "LRU-2" {
		t.Error("LRU-2 name")
	}
	if NewLRUK(3).Name() != "LRU-K" {
		t.Error("LRU-K name")
	}
	if NewLRUK(0).k != 1 {
		t.Error("k clamped to 1")
	}
}

func TestTwoQProbationAndPromotion(t *testing.T) {
	ix, st := testEnv(t)
	// Policy sized for 8 frames (Kin=2, Kout=4) over a 3-frame pool so
	// ghosts survive long enough to observe promotion.
	pol := NewTwoQ(8)
	m, _ := newSerial(3, st, ix, pol)
	// Fill: all three pages sit in probation (A1in).
	touch(t, m, 0)
	touch(t, m, 1)
	touch(t, m, 2)
	// Probation (3) exceeds Kin (2): next miss evicts the FIFO tail
	// (page 0) and leaves a ghost for it.
	touch(t, m, 3)
	if m.Contains(0) {
		t.Fatal("2Q should evict the oldest probation page")
	}
	// Re-referencing page 0 while its ghost lives promotes it to Am.
	touch(t, m, 0) // evicts 1 from probation; ghost hit -> Am
	if pol.am.size != 1 {
		t.Errorf("Am size = %d, want 1 (page 0 promoted)", pol.am.size)
	}
	if pol.inA1in[mustFrame(t, m, 0)] {
		t.Error("page 0 should not be in probation after promotion")
	}
}

func mustFrame(t *testing.T, m *Manager, id postings.PageID) *Frame {
	t.Helper()
	f, err := pin(m, id)
	if err != nil {
		t.Fatal(err)
	}
	m.Unpin(f)
	return f
}

func TestTwoQProbationHitDoesNotPromote(t *testing.T) {
	ix, st := testEnv(t)
	pol := NewTwoQ(4)
	m, _ := newSerial(4, st, ix, pol)
	touch(t, m, 0)
	touch(t, m, 0) // hit in probation: stays probationary
	if pol.a1in.size != 1 || pol.am.size != 0 {
		t.Errorf("a1in=%d am=%d, want 1/0", pol.a1in.size, pol.am.size)
	}
}

func TestTwoQGhostBounded(t *testing.T) {
	p := NewTwoQ(4) // kout = 2
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

func TestTwoQAndLRUKStatsConsistent(t *testing.T) {
	ix, st := testEnv(t)
	for _, pol := range []Policy{NewLRUK(2), NewTwoQ(3)} {
		m, _ := newSerial(3, st, ix, pol)
		for i := 0; i < 60; i++ {
			touch(t, m, postings.PageID(i%7))
		}
		s := m.Stats()
		if int(s.Misses-s.Evictions) != m.InUse() {
			t.Errorf("%s: misses %d - evictions %d != in-use %d",
				pol.Name(), s.Misses, s.Evictions, m.InUse())
		}
	}
}

// TestSequentialScanDefeatsAll: on a cyclic sequential scan larger
// than the pool — the paper's model of refinement access — LRU, LRU-2
// and 2Q all degrade to ~zero hits ([Sto81] and §3.3 footnote 7).
func TestSequentialScanDefeatsAll(t *testing.T) {
	ix, st := testEnv(t)
	for _, pol := range []Policy{NewLRU(), NewLRUK(2), NewTwoQ(4)} {
		m, _ := newSerial(4, st, ix, pol)
		// Three full sequential passes over 7 pages with 4 frames.
		for pass := 0; pass < 3; pass++ {
			for p := postings.PageID(0); p < 7; p++ {
				touch(t, m, p)
			}
		}
		s := m.Stats()
		hitRate := float64(s.Hits) / float64(s.Hits+s.Misses)
		if hitRate > 0.25 {
			t.Errorf("%s: hit rate %.2f on cyclic scan; expected near zero", pol.Name(), hitRate)
		}
	}
}
