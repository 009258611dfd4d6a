package experiments

import "bufir/internal/buffer"

// lru2 is the LRU-K replacement policy of O'Neil, O'Neil & Weikum
// (SIGMOD 1993) with K = 2: the victim is the page whose second most
// recent reference is oldest (backward 2-distance), with pages
// referenced only once treated as infinitely distant (classic LRU on
// their one reference breaks that tie).
//
// The paper conjectures (§3.3, footnote 7) that LRU-K "will fare no
// better than LRU" on refinement workloads: the access pattern is a
// repeated sequential scan, so reference recency — however deep the
// history — carries no information about re-use. E14 (baselines)
// verifies that claim experimentally.
//
// The policy keeps its own state: a side table from each resident
// frame to its last two reference times. Victim scans it for the
// unpinned frame with the smallest (key, Page) — a total order, so the
// victim does not depend on the table's iteration order.
type lru2 struct {
	clock int64
	refs  map[*buffer.Frame]lru2Refs
}

// lru2Refs holds a frame's last reference time and the one before it
// (0: referenced once only).
type lru2Refs struct{ last, prev int64 }

func newLRU2() *lru2 { return &lru2{refs: make(map[*buffer.Frame]lru2Refs)} }

// Name implements buffer.Policy.
func (p *lru2) Name() string { return "LRU-2" }

// Admitted implements buffer.Policy.
func (p *lru2) Admitted(f *buffer.Frame) {
	p.clock++
	p.refs[f] = lru2Refs{last: p.clock}
}

// Touched records a hit.
func (p *lru2) Touched(f *buffer.Frame) {
	p.clock++
	p.refs[f] = lru2Refs{last: p.clock, prev: p.refs[f].last}
}

// Removed implements buffer.Policy.
func (p *lru2) Removed(f *buffer.Frame) { delete(p.refs, f) }

// Victim implements buffer.Policy: the smallest 2-distance key first.
func (p *lru2) Victim() *buffer.Frame {
	var victim *buffer.Frame
	var vkey int64
	for f, r := range p.refs {
		if f.Pinned() {
			continue
		}
		k := r.key()
		if victim == nil || k < vkey || (k == vkey && f.Page < victim.Page) {
			victim, vkey = f, k
		}
	}
	return victim
}

// SetQuery implements buffer.Policy (LRU-2 is query-oblivious).
func (p *lru2) SetQuery([]buffer.TermWeight) {}

// key returns the eviction key: the second most recent reference time,
// or, for a page referenced once, that reference offset far into the
// negative range, so such pages go first, LRU among themselves.
func (r lru2Refs) key() int64 {
	if r.prev != 0 {
		return r.prev
	}
	return r.last - (1 << 62)
}
