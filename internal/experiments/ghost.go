package experiments

import "bufir/internal/postings"

// ghostList is a bounded history of recently-departed page IDs — the
// A1out structure of 2Q and the per-expert eviction memory of the
// ADAPTIVE policy. Each entry carries a one-byte tag (ADAPTIVE stores
// which expert chose the eviction; 2Q stores nothing).
//
// The list is a fixed-size ring: admission at the write cursor expires
// the oldest live entry in place, so the backing array never grows —
// unlike the historical `fifo = fifo[1:]` trimming, which re-appended
// into an ever-larger backing array between reallocations. Lookups go
// through a map keyed by page ID; a map entry is live only while it
// still owns its ring slot, so Remove can simply delete from the map
// and leave the stale ring slot to be reclaimed when the cursor wraps.
type ghostList struct {
	ring []postings.PageID
	live map[postings.PageID]ghostEntry
	next int // ring write cursor
}

type ghostEntry struct {
	slot int
	tag  uint8
}

// newGhostList returns a ghost list holding at most capacity entries
// (minimum 1).
func newGhostList(capacity int) *ghostList {
	if capacity < 1 {
		capacity = 1
	}
	return &ghostList{
		ring: make([]postings.PageID, capacity),
		live: make(map[postings.PageID]ghostEntry, capacity),
	}
}

// Add records id with the given tag. When id is already present only
// the tag is refreshed (its FIFO position is kept, matching the old
// A1out behavior). Otherwise the entry at the write cursor — the
// oldest live entry, when the list is full — is expired in its place.
func (g *ghostList) Add(id postings.PageID, tag uint8) {
	if e, ok := g.live[id]; ok {
		e.tag = tag
		g.live[id] = e
		return
	}
	old := g.ring[g.next]
	if e, ok := g.live[old]; ok && e.slot == g.next {
		delete(g.live, old)
	}
	g.ring[g.next] = id
	g.live[id] = ghostEntry{slot: g.next, tag: tag}
	g.next++
	if g.next == len(g.ring) {
		g.next = 0
	}
}

// Hit reports whether id is a live ghost and, if so, its tag.
func (g *ghostList) Hit(id postings.PageID) (uint8, bool) {
	e, ok := g.live[id]
	return e.tag, ok
}

// Remove forgets id (no-op when absent). The ring slot is left stale;
// the slot check in Add reclaims it when the cursor wraps around.
func (g *ghostList) Remove(id postings.PageID) {
	delete(g.live, id)
}

// Len returns the number of live ghost entries (≤ capacity).
func (g *ghostList) Len() int { return len(g.live) }

// Cap returns the fixed capacity.
func (g *ghostList) Cap() int { return len(g.ring) }
