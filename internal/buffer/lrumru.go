package buffer

// recencyList is an intrusive doubly-linked list of frames ordered by
// recency of use: head = most recently used, tail = least recently
// used. It is shared by the LRU and MRU policies, which differ only in
// which end they evict from.
type recencyList struct {
	head, tail *Frame
	size       int
}

func (l *recencyList) pushFront(f *Frame) {
	f.prev = nil
	f.next = l.head
	if l.head != nil {
		l.head.prev = f
	}
	l.head = f
	if l.tail == nil {
		l.tail = f
	}
	l.size++
}

func (l *recencyList) remove(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.prev, f.next = nil, nil
	l.size--
}

func (l *recencyList) moveToFront(f *Frame) {
	if l.head == f {
		return
	}
	l.remove(f)
	l.pushFront(f)
}

// LRU is the Least-Recently-Used policy: the default the paper assumes
// for document retrieval systems built on file systems (§3.3). On a
// repeated-sequential-scan access pattern (which DF's fixed idf
// processing order produces across refinements) it renders the buffers
// useless unless they hold the whole working set [Sto81].
type LRU struct {
	list recencyList
}

// NewLRU returns a fresh LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (p *LRU) Name() string { return "LRU" }

// Admitted implements Policy: a loaded page is most recently used.
func (p *LRU) Admitted(f *Frame) { p.list.pushFront(f) }

// Touched implements Policy.
func (p *LRU) Touched(f *Frame) { p.list.moveToFront(f) }

// Removed implements Policy.
func (p *LRU) Removed(f *Frame) { p.list.remove(f) }

// Victim implements Policy: evict the least recently used unpinned
// frame.
func (p *LRU) Victim() *Frame {
	for f := p.list.tail; f != nil; f = f.prev {
		if !f.Pinned() {
			return f
		}
	}
	return nil
}

// SetQuery implements Policy (no-op for LRU).
func (p *LRU) SetQuery([]TermWeight) {}

// MRU is the Most-Recently-Used policy, the textbook fix for repeated
// sequential scans [CD85]. The paper shows it misbehaves on ADD-DROP
// refinement workloads: pages of dropped terms are by construction not
// the most recently used, so MRU is guaranteed to keep them (§5.3).
type MRU struct {
	list recencyList
}

// NewMRU returns a fresh MRU policy.
func NewMRU() *MRU { return &MRU{} }

// Name implements Policy.
func (p *MRU) Name() string { return "MRU" }

// Admitted implements Policy.
func (p *MRU) Admitted(f *Frame) { p.list.pushFront(f) }

// Touched implements Policy.
func (p *MRU) Touched(f *Frame) { p.list.moveToFront(f) }

// Removed implements Policy.
func (p *MRU) Removed(f *Frame) { p.list.remove(f) }

// Victim implements Policy: evict the most recently used unpinned
// frame.
func (p *MRU) Victim() *Frame {
	for f := p.list.head; f != nil; f = f.next {
		if !f.Pinned() {
			return f
		}
	}
	return nil
}

// SetQuery implements Policy (no-op for MRU).
func (p *MRU) SetQuery([]TermWeight) {}
