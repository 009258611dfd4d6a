package buffer

import "bufir/internal/postings"

// RAP is the paper's Ranking-Aware Policy (§3.3). Each buffered page
// is assigned the replacement value
//
//	value = w*_{d,t} · w_{q,t}
//
// where w*_{d,t} is the highest document weight for any entry on the
// page (precomputed at index build time and carried on the frame) and
// w_{q,t} is the weight of the page's term in the query currently
// being processed (0 if the term is not in the query — e.g. it was
// dropped during refinement). The page with the lowest value is the
// eviction victim; ties are broken by evicting the tail of a list
// before its head (higher page offset first), and then by PageID for
// determinism.
//
// Within one term that order never depends on the query. Lists are
// frequency-sorted, so w* does not increase with the page offset
// (postings.RebuildPageMaps rejects an index where it does);
// multiplying by one non-negative w_{q,t} keeps a ≤ b as a·w ≤ b·w in
// IEEE arithmetic (rounding is monotone), so a page further down the
// list never has the larger value; and among equal values the tie rule
// picks the higher offset anyway. A term's resident pages are
// therefore always evicted tail first, whatever the weights.
//
// RAP keeps each term's resident frames as a group in that static
// order and a min-heap over the groups, keyed by each group's next
// victim. A query change re-keys only the groups whose combined weight
// changed — the "reorganizing capability" the paper calls for, at a
// cost proportional to the refinement step instead of the pool — and
// an admission or removal touches one group.
type RAP struct {
	// weight is the shard's copy of the pool's combined query weights:
	// the terms some registered query holds with a positive w_{q,t}.
	weight map[postings.TermID]float64
	// groups holds one group per term with a resident page; heap orders
	// them by key; free recycles the groups of terms that left the pool
	// (a single-page term comes and goes once per miss).
	groups map[postings.TermID]*rapGroup
	heap   []*rapGroup
	free   []*rapGroup
	// headFirst flips the tie rule (NewRAPHeadFirst).
	headFirst bool
}

// rapGroup is the resident frames of one term.
type rapGroup struct {
	term   postings.TermID
	w      float64  // the term's combined w_{q,t}
	frames []*Frame // Offset ascending
	key    rapKey   // the group's next victim, pins ignored
	pos    int      // index in RAP.heap
}

// rapKey orders frames for eviction: value ascending, then offset
// (descending under the paper's tail-before-head rule), then page id.
type rapKey struct {
	value  float64
	offset int32
	page   postings.PageID
}

func (g *rapGroup) keyOf(f *Frame) rapKey {
	return rapKey{value: f.WStar * g.w, offset: f.Offset, page: f.Page}
}

// NewRAP returns a fresh RAP policy. Until the first SetQuery all
// pages value to 0 (equivalent to "no current query").
func NewRAP() *RAP {
	return &RAP{
		weight: make(map[postings.TermID]float64),
		groups: make(map[postings.TermID]*rapGroup),
	}
}

// NewRAPHeadFirst returns a RAP variant that breaks value ties by
// evicting the HEAD of a list before its tail — the opposite of the
// paper's rule. It exists for the ablation study quantifying how much
// the tail-before-head rule contributes (DESIGN.md §5). Its order
// within a term is not static (pages whose values tie leave head
// first, the others tail first), so it finds the tying run on every
// re-key; the ablation can afford that.
func NewRAPHeadFirst() *RAP {
	p := NewRAP()
	p.headFirst = true
	return p
}

// Name implements Policy.
func (p *RAP) Name() string {
	if p.headFirst {
		return "RAP-headfirst"
	}
	return "RAP"
}

// Admitted implements Policy: the frame joins its term's group at its
// offset — the tail, when a list scan admits it, which is an append.
func (p *RAP) Admitted(f *Frame) {
	g := p.groups[f.Term]
	if g == nil {
		if n := len(p.free); n > 0 {
			g, p.free = p.free[n-1], p.free[:n-1]
		} else {
			g = new(rapGroup)
		}
		g.term, g.w, g.pos = f.Term, p.weight[f.Term], len(p.heap)
		p.groups[f.Term] = g
		p.heap = append(p.heap, g)
	}
	i := len(g.frames)
	g.frames = append(g.frames, f)
	for ; i > 0 && g.frames[i-1].Offset > f.Offset; i-- {
		g.frames[i] = g.frames[i-1]
	}
	g.frames[i] = f
	f.group = g
	p.rekey(g)
}

// Removed implements Policy. Victims leave from the tail of their
// group, so the search for the frame starts there.
func (p *RAP) Removed(f *Frame) {
	g := f.group
	f.group = nil
	last := len(g.frames) - 1
	i := last
	for g.frames[i] != f {
		i--
	}
	copy(g.frames[i:], g.frames[i+1:])
	g.frames[last] = nil
	g.frames = g.frames[:last]
	if last > 0 {
		p.rekey(g)
		return
	}
	// The term left the pool: its group leaves the heap and is kept
	// for the next term that arrives.
	delete(p.groups, g.term)
	end := len(p.heap) - 1
	moved := p.heap[end]
	p.heap[end] = nil
	p.heap = p.heap[:end]
	if moved != g {
		p.heap[g.pos], moved.pos = moved, g.pos
		p.fix(moved)
	}
	p.free = append(p.free, g)
}

// Victim implements Policy: the unpinned frame with the smallest key.
// The heap's root group usually supplies it at once; when frames are
// pinned the search walks past them — down the group in eviction
// order, and into every heap subtree whose root's key is still below
// the best candidate found. Nothing is popped or re-pushed.
func (p *RAP) Victim() *Frame {
	best, _ := p.search(0, nil, rapKey{})
	return best
}

// search returns the better of best and the smallest-key unpinned
// frame in the heap subtree rooted at i.
func (p *RAP) search(i int, best *Frame, bestKey rapKey) (*Frame, rapKey) {
	if i >= len(p.heap) {
		return best, bestKey
	}
	g := p.heap[i]
	if best != nil && !p.less(g.key, bestKey) {
		return best, bestKey // every key below here is at least g.key
	}
walk:
	for hi := len(g.frames); hi > 0; {
		lo := p.runStart(g, hi)
		for _, f := range g.frames[lo:hi] {
			k := g.keyOf(f)
			if best != nil && !p.less(k, bestKey) {
				break walk
			}
			if !f.Pinned() {
				best, bestKey = f, k
				break walk
			}
		}
		hi = lo
	}
	best, bestKey = p.search(2*i+1, best, bestKey)
	return p.search(2*i+2, best, bestKey)
}

// runStart returns lo such that g.frames[lo:hi], in that order, are
// the frames evicted first among g.frames[:hi]. Under the paper's rule
// that is the single frame at the tail; head-first, it is the run of
// frames whose value ties with the tail's.
func (p *RAP) runStart(g *rapGroup, hi int) int {
	lo := hi - 1
	if p.headFirst {
		for v := g.frames[lo].WStar * g.w; lo > 0 && g.frames[lo-1].WStar*g.w == v; {
			lo--
		}
	}
	return lo
}

// SetQuery implements Policy: record the changed weights and re-key
// the groups of the changed terms that have pages resident.
func (p *RAP) SetQuery(changed []TermWeight) {
	for _, c := range changed {
		if c.Weight > 0 {
			p.weight[c.Term] = c.Weight
		} else {
			delete(p.weight, c.Term)
		}
		if g := p.groups[c.Term]; g != nil {
			g.w = c.Weight
			p.rekey(g)
		}
	}
}

// rekey recomputes g's key after its frames or weight changed and
// restores the heap order around it.
func (p *RAP) rekey(g *rapGroup) {
	g.key = g.keyOf(g.frames[p.runStart(g, len(g.frames))])
	p.fix(g)
}

func (p *RAP) less(a, b rapKey) bool {
	if a.value != b.value {
		return a.value < b.value
	}
	if a.offset != b.offset {
		return (a.offset > b.offset) != p.headFirst
	}
	return a.page < b.page
}

func (p *RAP) fix(g *rapGroup) {
	p.up(g.pos)
	p.down(g.pos)
}

func (p *RAP) up(i int) {
	g := p.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(g.key, p.heap[parent].key) {
			break
		}
		p.heap[i] = p.heap[parent]
		p.heap[i].pos = i
		i = parent
	}
	p.heap[i] = g
	g.pos = i
}

func (p *RAP) down(i int) {
	g := p.heap[i]
	for {
		c := 2*i + 1
		if c >= len(p.heap) {
			break
		}
		if c+1 < len(p.heap) && p.less(p.heap[c+1].key, p.heap[c].key) {
			c++
		}
		if !p.less(p.heap[c].key, g.key) {
			break
		}
		p.heap[i] = p.heap[c]
		p.heap[i].pos = i
		i = c
	}
	p.heap[i] = g
	g.pos = i
}
