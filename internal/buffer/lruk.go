package buffer

import "container/heap"

// LRUK is the LRU-K replacement policy of O'Neil, O'Neil & Weikum
// (SIGMOD 1993): the victim is the page whose K-th most recent
// reference is oldest (backward K-distance), with pages that have
// fewer than K references treated as infinitely distant (classic LRU
// on their last reference breaks that tie).
//
// The paper conjectures (§3.3, footnote 7) that LRU-K "will fare no
// better than LRU" on refinement workloads: the access pattern is a
// repeated sequential scan, so reference recency — however deep the
// history — carries no information about re-use. This implementation
// exists to verify that claim experimentally (see the baselines
// experiment).
type LRUK struct {
	k     int
	clock int64
	// hist[f] holds the reference times of f, most recent first, at
	// most k entries.
	hist map[*Frame][]int64
	pq   lrukHeap
}

// NewLRUK returns an LRU-K policy; k must be >= 1 (k = 1 degenerates
// to plain LRU). The common literature choice is k = 2.
func NewLRUK(k int) *LRUK {
	if k < 1 {
		k = 1
	}
	return &LRUK{k: k, hist: make(map[*Frame][]int64)}
}

// Name implements Policy.
func (p *LRUK) Name() string {
	if p.k == 2 {
		return "LRU-2"
	}
	return "LRU-K"
}

func (p *LRUK) touch(f *Frame) {
	p.clock++
	h := p.hist[f]
	h = append([]int64{p.clock}, h...)
	if len(h) > p.k {
		h = h[:p.k]
	}
	p.hist[f] = h
	heap.Fix(&p.pq, f.heapIdx)
}

// Admitted implements Policy.
func (p *LRUK) Admitted(f *Frame) {
	p.clock++
	p.hist[f] = []int64{p.clock}
	heap.Push(&p.pq, lrukEntry{f, p})
}

// Touched implements Policy.
func (p *LRUK) Touched(f *Frame) { p.touch(f) }

// Removed implements Policy.
func (p *LRUK) Removed(f *Frame) {
	heap.Remove(&p.pq, f.heapIdx)
	delete(p.hist, f)
}

// Victim implements Policy: smallest K-distance key first.
func (p *LRUK) Victim() *Frame {
	var pinned []lrukEntry
	var victim *Frame
	for p.pq.Len() > 0 {
		e := heap.Pop(&p.pq).(lrukEntry)
		if !e.f.Pinned() {
			victim = e.f
			heap.Push(&p.pq, e)
			break
		}
		pinned = append(pinned, e)
	}
	for _, e := range pinned {
		heap.Push(&p.pq, e)
	}
	return victim
}

// SetQuery implements Policy (LRU-K is query-oblivious).
func (p *LRUK) SetQuery([]TermWeight) {}

// key returns the eviction key: the K-th most recent reference time,
// or the (negated, very old) last reference when the page has fewer
// than K references so it is preferred for eviction, LRU among itself.
func (p *LRUK) key(f *Frame) int64 {
	h := p.hist[f]
	if len(h) >= p.k {
		return h[p.k-1]
	}
	// Fewer than K references: infinitely old K-distance. Order those
	// pages among themselves by their last reference (classic
	// tie-break), kept below every full-history key by offsetting into
	// the negative range.
	return h[0] - (1 << 62)
}

type lrukEntry struct {
	f *Frame
	p *LRUK
}

type lrukHeap []lrukEntry

func (h lrukHeap) Len() int { return len(h) }
func (h lrukHeap) Less(i, j int) bool {
	ki, kj := h[i].p.key(h[i].f), h[j].p.key(h[j].f)
	if ki != kj {
		return ki < kj
	}
	return h[i].f.Page < h[j].f.Page
}
func (h lrukHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].f.heapIdx = i
	h[j].f.heapIdx = j
}
func (h *lrukHeap) Push(x any) {
	e := x.(lrukEntry)
	e.f.heapIdx = len(*h)
	*h = append(*h, e)
}
func (h *lrukHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	e.f.heapIdx = -1
	*h = old[:n-1]
	return e
}
