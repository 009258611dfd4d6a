package buffer

// TwoQ is the 2Q replacement policy of Johnson & Shasha (VLDB 1994):
// newly admitted pages enter a FIFO probation queue (A1in); pages
// evicted from probation leave a ghost entry (A1out, page IDs only);
// a page re-admitted while its ghost is live is considered hot and
// enters the main LRU queue (Am). Hits inside probation do not promote.
//
// As with LRU-K, the paper conjectures 2Q cannot help refinement
// workloads (§3.3, footnote 7): every page of a re-run query misses
// probation timing in exactly the same sequential order, so the
// "hot" set 2Q discovers is no better than what plain LRU retains.
// The baselines experiment measures this.
type TwoQ struct {
	capacity int
	kin      int // max probation size
	kout     int // max ghost entries

	a1in recencyList // FIFO: head = newest
	am   recencyList // LRU: head = most recent

	inA1in map[*Frame]bool
	// ghosts is A1out: a fixed ring of recently-evicted probation page
	// IDs (bounded memory — see ghostList).
	ghosts *ghostList
	// pending is the frame returned by the last Victim call. Removed
	// ghosts a probation frame only when it is the pending victim:
	// teardown removals (index Close, pool Flush, fault-poisoned frame
	// invalidation) are not evictions and must not teach A1out that the
	// page was pushed out under memory pressure.
	pending *Frame
}

// NewTwoQ returns a 2Q policy for a pool of the given capacity, using
// the authors' recommended sizing: Kin = capacity/4, Kout = capacity/2.
func NewTwoQ(capacity int) *TwoQ {
	kin := capacity / 4
	if kin < 1 {
		kin = 1
	}
	kout := capacity / 2
	if kout < 1 {
		kout = 1
	}
	return &TwoQ{
		capacity: capacity,
		kin:      kin,
		kout:     kout,
		inA1in:   make(map[*Frame]bool),
		ghosts:   newGhostList(kout),
	}
}

// Name implements Policy.
func (p *TwoQ) Name() string { return "2Q" }

// Admitted implements Policy.
func (p *TwoQ) Admitted(f *Frame) {
	if _, ok := p.ghosts.Hit(f.Page); ok {
		// Re-reference within ghost memory: hot page. The ghost entry
		// is consumed (the paper's A1out hit moves the page to Am).
		p.ghosts.Remove(f.Page)
		p.am.pushFront(f)
		return
	}
	p.a1in.pushFront(f)
	p.inA1in[f] = true
}

// Touched implements toucher: probation hits do not promote; main-queue
// hits refresh recency.
func (p *TwoQ) Touched(f *Frame) {
	if p.inA1in[f] {
		return
	}
	p.am.moveToFront(f)
}

// Removed implements Policy: only a genuine eviction — the frame the
// manager just obtained from Victim — of a probation page records an
// A1out ghost entry.
func (p *TwoQ) Removed(f *Frame) {
	evicted := f == p.pending
	if evicted {
		p.pending = nil
	}
	if p.inA1in[f] {
		p.a1in.remove(f)
		delete(p.inA1in, f)
		if evicted {
			p.ghosts.Add(f.Page, 0)
		}
		return
	}
	p.am.remove(f)
}

// Victim implements Policy: evict from probation while it exceeds its
// share, otherwise from the main queue's LRU end; fall back to
// whichever queue has an unpinned page.
func (p *TwoQ) Victim() *Frame {
	f := p.victim()
	p.pending = f
	return f
}

func (p *TwoQ) victim() *Frame {
	fromA1in := p.a1in.size > p.kin || p.am.size == 0
	if fromA1in {
		if f := tailUnpinned(&p.a1in); f != nil {
			return f
		}
		return tailUnpinned(&p.am)
	}
	if f := tailUnpinned(&p.am); f != nil {
		return f
	}
	return tailUnpinned(&p.a1in)
}

// SetQuery implements Policy (2Q is query-oblivious).
func (p *TwoQ) SetQuery([]TermWeight) {}

// tailUnpinned returns the oldest unpinned frame of a recency list.
func tailUnpinned(l *recencyList) *Frame {
	for f := l.tail; f != nil; f = f.prev {
		if !f.Pinned() {
			return f
		}
	}
	return nil
}
