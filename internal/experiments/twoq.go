package experiments

import (
	"bufir/internal/buffer"
	"bufir/internal/postings"
)

// twoQ is the 2Q replacement policy of Johnson & Shasha (VLDB 1994):
// newly admitted pages enter a FIFO probation queue (A1in); pages
// evicted from probation leave a ghost entry (A1out, page IDs only);
// a page re-admitted while its ghost is live is considered hot and
// enters the main LRU queue (Am). Hits inside probation do not promote.
//
// As with LRU-2, the paper conjectures 2Q cannot help refinement
// workloads (§3.3, footnote 7): every page of a re-run query misses
// probation timing in exactly the same sequential order, so the
// "hot" set 2Q discovers is no better than what plain LRU retains.
// E14 (baselines) measures this.
//
// Both queues are buffer LRUs: A1in is never touched, which makes it a
// FIFO, and Am is. A frame is in one queue at a time, so the two never
// share a frame's recency links.
type twoQ struct {
	kin int // max probation size

	a1in, am   *buffer.LRU
	nA1in, nAm int
	inA1in     map[*buffer.Frame]bool
	ghosts     *ghostList // A1out: at most Kout recently evicted probation pages
	pending    *buffer.Frame
}

// newTwoQ returns a 2Q policy for a pool of the given capacity, using
// the authors' recommended sizing: Kin = capacity/4, Kout = capacity/2.
func newTwoQ(capacity int) *twoQ {
	return &twoQ{
		kin:    max(capacity/4, 1),
		a1in:   buffer.NewLRU(),
		am:     buffer.NewLRU(),
		inA1in: make(map[*buffer.Frame]bool),
		ghosts: newGhostList(capacity / 2),
	}
}

// Name implements buffer.Policy.
func (p *twoQ) Name() string { return "2Q" }

// Admitted implements buffer.Policy.
func (p *twoQ) Admitted(f *buffer.Frame) {
	if _, ok := p.ghosts.Hit(f.Page); ok {
		// Re-reference within ghost memory: hot page. The ghost entry
		// is consumed (the paper's A1out hit moves the page to Am).
		p.ghosts.Remove(f.Page)
		p.am.Admitted(f)
		p.nAm++
		return
	}
	p.a1in.Admitted(f)
	p.nA1in++
	p.inA1in[f] = true
}

// Touched records a hit: probation hits do not promote; main-queue
// hits refresh recency.
func (p *twoQ) Touched(f *buffer.Frame) {
	if !p.inA1in[f] {
		p.am.Touched(f)
	}
}

// Removed implements buffer.Policy. Only a genuine eviction — the
// frame the manager just obtained from Victim — of a probation page
// records an A1out ghost entry: teardown removals (index Close, pool
// Flush, fault-poisoned frame invalidation) are not evictions and must
// not teach A1out that the page was pushed out under memory pressure.
func (p *twoQ) Removed(f *buffer.Frame) {
	evicted := f == p.pending
	if evicted {
		p.pending = nil
	}
	if p.inA1in[f] {
		p.a1in.Removed(f)
		p.nA1in--
		delete(p.inA1in, f)
		if evicted {
			p.ghosts.Add(f.Page, 0)
		}
		return
	}
	p.am.Removed(f)
	p.nAm--
}

// Victim implements buffer.Policy: evict from probation while it
// exceeds its share, otherwise from the main queue's LRU end; fall back
// to whichever queue has an unpinned page.
func (p *twoQ) Victim() *buffer.Frame {
	first, second := p.am, p.a1in
	if p.nA1in > p.kin || p.nAm == 0 {
		first, second = p.a1in, p.am
	}
	f := first.Victim()
	if f == nil {
		f = second.Victim()
	}
	p.pending = f
	return f
}

// SetQuery implements buffer.Policy (2Q is query-oblivious).
func (p *twoQ) SetQuery([]buffer.TermWeight) {}

// Ghosted reports whether id has a live A1out entry.
func (p *twoQ) Ghosted(id postings.PageID) bool {
	_, ok := p.ghosts.Hit(id)
	return ok
}
