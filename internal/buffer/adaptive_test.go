package buffer

import (
	"errors"
	"testing"

	"bufir/internal/postings"
)

// ---------------------------------------------------------------------------
// ghostList unit tests (the shared A1out ring behind 2Q and ADAPTIVE).
// ---------------------------------------------------------------------------

// TestGhostListBounded: the ring never holds more than its capacity and
// expires strictly oldest-first under churn of unique IDs.
func TestGhostListBounded(t *testing.T) {
	g := newGhostList(4)
	for i := 0; i < 1000; i++ {
		g.Add(postings.PageID(i), uint8(i%2))
		if g.Len() > 4 {
			t.Fatalf("Len = %d > capacity 4 after %d adds", g.Len(), i+1)
		}
	}
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	for i := 996; i < 1000; i++ {
		tag, ok := g.Hit(postings.PageID(i))
		if !ok {
			t.Fatalf("newest id %d missing", i)
		}
		if tag != uint8(i%2) {
			t.Fatalf("id %d tag = %d, want %d", i, tag, i%2)
		}
	}
	if _, ok := g.Hit(995); ok {
		t.Fatal("id 995 should have been expired by the ring")
	}
}

// TestGhostListStaleSlot: removing an entry leaves its old ring slot
// stale; a later re-add of the same ID under a new slot must survive
// the cursor wrapping over the stale slot.
func TestGhostListStaleSlot(t *testing.T) {
	g := newGhostList(3)
	g.Add(1, 0) // slot 0
	g.Remove(1)
	g.Add(2, 0) // slot 1
	g.Add(3, 0) // slot 2
	g.Add(1, 1) // slot 0 again (stale occupant is id 1's OLD slot — same id, fresh entry)
	// Cursor is now at slot 1; adding two more wraps it over id 1's old
	// slot 0... but id 1 now lives in slot 0 legitimately. Push the
	// cursor past slots 1 and 2 and confirm only their occupants expire.
	g.Add(4, 0) // slot 1, expires id 2
	g.Add(5, 0) // slot 2, expires id 3
	if _, ok := g.Hit(1); !ok {
		t.Fatal("id 1 evicted by a stale-slot sweep")
	}
	if _, ok := g.Hit(2); ok {
		t.Fatal("id 2 should have expired")
	}
	if _, ok := g.Hit(3); ok {
		t.Fatal("id 3 should have expired")
	}
}

// TestGhostListRefresh: re-adding a live ID updates its tag in place
// without consuming a ring slot.
func TestGhostListRefresh(t *testing.T) {
	g := newGhostList(2)
	g.Add(7, expertLRU)
	g.Add(7, expertRAP)
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	if tag, _ := g.Hit(7); tag != expertRAP {
		t.Fatalf("tag = %d, want refreshed %d", tag, expertRAP)
	}
}

// ---------------------------------------------------------------------------
// 2Q regression tests: ghosts record only genuine evictions, and ghost
// memory stays bounded under unbounded churn.
// ---------------------------------------------------------------------------

// TestTwoQEvictionGhosts is the positive control: a real eviction of a
// probation page must still leave a ghost, and readmitting that page
// within ghost memory promotes it to Am.
func TestTwoQEvictionGhosts(t *testing.T) {
	ix, st := testEnv(t)
	pol := NewTwoQ(4) // kout = 2: room for two eviction ghosts
	m, err := newSerial(4, st, ix, pol)
	if err != nil {
		t.Fatal(err)
	}
	for p := postings.PageID(0); p < 5; p++ { // one past capacity: one eviction
		touch(t, m, p)
	}
	if pol.ghosts.Len() != 1 {
		t.Fatalf("ghosts after one eviction = %d, want 1", pol.ghosts.Len())
	}
	if _, ok := pol.ghosts.Hit(0); !ok {
		t.Fatal("evicted FIFO-oldest page 0 not ghosted")
	}
	touch(t, m, 0) // evicts another page, then readmits 0 via its ghost
	f := get(t, m, 0)
	defer m.Unpin(f)
	if pol.inA1in[f] {
		t.Fatal("ghost-hit readmission landed in probation, want Am")
	}
}

// TestTwoQFlushLeavesNoGhosts: Flush tears the pool down — it is not
// an eviction, so no removed page may enter A1out, and a page fetched
// again afterwards is on probation like any cold page. (Regression:
// Removed used to ghost every probation removal.)
func TestTwoQFlushLeavesNoGhosts(t *testing.T) {
	ix, st := testEnv(t)
	pol := NewTwoQ(8)
	m, err := newSerial(8, st, ix, pol)
	if err != nil {
		t.Fatal(err)
	}
	for p := postings.PageID(0); p < 7; p++ { // fits: no evictions
		touch(t, m, p)
	}
	m.Flush()
	if n := pol.ghosts.Len(); n != 0 {
		t.Fatalf("ghosts after Flush = %d, want 0", n)
	}
	f := get(t, m, 3)
	defer m.Unpin(f)
	if !pol.inA1in[f] {
		t.Fatal("page readmitted after Flush skipped probation (phantom ghost)")
	}
}

// TestTwoQFaultInvalidationLeavesNoGhosts: a fault-poisoned frame is
// invalidated via Removed with no preceding Victim — the reserved
// frame never held data, so its page must not be remembered as a hot
// eviction. (Regression: the failed-load teardown used to ghost.)
func TestTwoQFaultInvalidationLeavesNoGhosts(t *testing.T) {
	ix, st := testEnv(t)
	fs := &flakyStore{inner: st, fail: map[postings.PageID]int{2: 1}}
	var pol *TwoQ
	m, err := NewManager(4, 1, fs, ix, func(capacity int) Policy {
		pol = NewTwoQ(capacity)
		return pol
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fetch(m, 2); !errors.Is(err, errFlaky) {
		t.Fatalf("Fetch(2) = %v, want the injected fault", err)
	}
	if n := pol.ghosts.Len(); n != 0 {
		t.Fatalf("ghosts after failed-load invalidation = %d, want 0", n)
	}
	// The page loads fine on retry and — with no phantom ghost — enters
	// probation as a cold page.
	f, _, err := fetch(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unpin(f)
	if !pol.inA1in[f] {
		t.Fatal("page readmitted after fault invalidation skipped probation (phantom ghost)")
	}
}

// TestTwoQGhostMemoryBounded drives the policy through a long churn of
// unique pages — the workload that made the old slice-based A1out grow
// its backing array without bound — and checks the ghost ring stays at
// its configured size throughout.
func TestTwoQGhostMemoryBounded(t *testing.T) {
	const capacity = 8 // kout = 4
	pol := NewTwoQ(capacity)
	var resident []*Frame
	for i := 0; i < 50000; i++ {
		f := &Frame{Page: postings.PageID(i), Offset: int32(i)}
		if len(resident) == capacity {
			v := pol.Victim()
			if v == nil {
				t.Fatal("no victim with a full unpinned pool")
			}
			pol.Removed(v)
			for j, rf := range resident {
				if rf == v {
					resident = append(resident[:j], resident[j+1:]...)
					break
				}
			}
		}
		pol.Admitted(f)
		resident = append(resident, f)
		if got, want := pol.ghosts.Len(), pol.kout; got > want {
			t.Fatalf("ghost entries = %d > kout %d at step %d", got, want, i)
		}
		if got := pol.ghosts.Cap(); got != pol.kout {
			t.Fatalf("ghost ring capacity drifted to %d, want %d", got, pol.kout)
		}
	}
}

// ---------------------------------------------------------------------------
// ADAPTIVE unit tests.
// ---------------------------------------------------------------------------

// adaptiveChurn evicts the current victim and readmits the same page,
// producing exactly one ghost hit charged to whichever expert evicted.
func adaptiveChurn(p *Adaptive, resident map[postings.PageID]*Frame) {
	v := p.Victim()
	p.Removed(v)
	delete(resident, v.Page)
	nf := &Frame{Page: v.Page, Term: v.Term, Offset: v.Offset, WStar: v.WStar}
	p.Admitted(nf)
	resident[nf.Page] = nf
}

// TestAdaptiveGhostHitReweights: a re-reference to an evicted page is a
// mistake charged to the evicting expert — its weight drops off 0.5
// and the ghost-hit counters record it.
func TestAdaptiveGhostHitReweights(t *testing.T) {
	p := NewAdaptive(4)
	resident := make(map[postings.PageID]*Frame)
	for i := 0; i < 4; i++ {
		f := &Frame{Page: postings.PageID(i), Term: postings.TermID(i), Offset: int32(i), WStar: float64(i + 1)}
		p.Admitted(f)
		resident[f.Page] = f
	}
	adaptiveChurn(p, resident)
	if p.ghostHitsLRU+p.ghostHitsRAP != 1 {
		t.Fatalf("ghost hits = %d LRU + %d RAP, want exactly 1 total", p.ghostHitsLRU, p.ghostHitsRAP)
	}
	if p.wLRU == 0.5 {
		t.Fatal("wLRU still 0.5 after a ghost hit")
	}
	if p.ghostHitsLRU == 1 && p.wLRU >= 0.5 {
		t.Fatalf("LRU blamed but wLRU = %g did not drop", p.wLRU)
	}
	if p.ghostHitsRAP == 1 && p.wLRU <= 0.5 {
		t.Fatalf("RAP blamed but wLRU = %g did not rise", p.wLRU)
	}

	// Sustained mistakes drive the weight toward — but never past — the
	// floor, so the loser expert can always recover.
	for i := 0; i < 40; i++ {
		adaptiveChurn(p, resident)
	}
	if p.wLRU < adaptiveWeightFloor || p.wLRU > 1-adaptiveWeightFloor {
		t.Fatalf("wLRU = %g escaped [%g, %g]", p.wLRU, adaptiveWeightFloor, 1-adaptiveWeightFloor)
	}
	if p.ghostHitsLRU+p.ghostHitsRAP != 41 {
		t.Fatalf("ghost hits = %d, want 41", p.ghostHitsLRU+p.ghostHitsRAP)
	}
}

// TestAdaptiveVictimFollowsFavoredExpert: with RAP favored the victim
// is the minimum-value page under the current query weights; with LRU
// favored it is the least-recently-used page — SetQuery demonstrably
// reaches the RAP expert.
func TestAdaptiveVictimFollowsFavoredExpert(t *testing.T) {
	p := NewAdaptive(3)
	a := &Frame{Page: 10, Term: 0, Offset: 0, WStar: 1}
	b := &Frame{Page: 11, Term: 1, Offset: 1, WStar: 5}
	c := &Frame{Page: 12, Term: 2, Offset: 2, WStar: 3}
	for _, f := range []*Frame{a, b, c} {
		p.Admitted(f)
	}
	p.SetQuery([]TermWeight{{Term: 0, Weight: 10}, {Term: 2, Weight: 1}})
	// Values: a = 1·10 = 10, b = 5·0 = 0, c = 3·1 = 3.

	p.wLRU = 0.3 // RAP favored
	if v := p.Victim(); v != b {
		t.Fatalf("RAP-favored victim = page %d, want %d (min value)", v.Page, b.Page)
	}
	p.wLRU = 0.7 // LRU favored
	p.Touched(a) // most recent: a; LRU order is now b, c (oldest is b)... b was admitted before c
	if v := p.Victim(); v != b {
		t.Fatalf("LRU-favored victim = page %d, want %d (least recent)", v.Page, b.Page)
	}
	p.Touched(b) // now c is least recent AND no longer min value under LRU
	if v := p.Victim(); v != c {
		t.Fatalf("LRU-favored victim = page %d, want %d (least recent)", v.Page, c.Page)
	}
	p.wLRU = 0.3 // back to RAP: min value is still b despite b being most recent
	if v := p.Victim(); v != b {
		t.Fatalf("RAP-favored victim = page %d, want %d (min value beats recency)", v.Page, b.Page)
	}
}

// TestAdaptiveFlushLeavesNoGhosts: like 2Q, ADAPTIVE must not learn
// from teardown — Flush leaves the regret ledger untouched.
func TestAdaptiveFlushLeavesNoGhosts(t *testing.T) {
	ix, st := testEnv(t)
	pol := NewAdaptive(8)
	m, err := newSerial(8, st, ix, pol)
	if err != nil {
		t.Fatal(err)
	}
	for p := postings.PageID(0); p < 7; p++ {
		touch(t, m, p)
	}
	m.Flush()
	if n := pol.ghosts.Len(); n != 0 {
		t.Fatalf("ghosts after Flush = %d, want 0", n)
	}
	for p := postings.PageID(0); p < 7; p++ {
		touch(t, m, p)
	}
	if n := pol.ghostHitsLRU + pol.ghostHitsRAP; n != 0 {
		t.Fatalf("refetch after Flush charged %d ghost hits, want 0", n)
	}
}
