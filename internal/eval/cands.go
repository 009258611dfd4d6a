package eval

import (
	"bufir/internal/postings"
	"bufir/internal/rank"
)

// The candidate state of one rank-safe evaluation. Every type here is
// pointer-free, so each backing array is a single allocation the
// garbage collector never scans, and growing one is a memmove.

// push appends v, doubling a full backing array (append's 1.25× steps
// for large slices would copy a growing array five times over). The
// candidate arrays are sized up front and grow only when a list holds
// more entries than its metadata promised.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), 2*cap(s)+8)
		copy(grown, s)
		s = grown
	}
	return append(s, v)
}

// candState is where a candidate stands with the termination proof.
type candState uint8

const (
	// active: incomplete (or about to be settled) and queued for the
	// proof to bound.
	active candState = iota
	// settled: complete and offered to the heap — a member, or turned
	// away by k better ones.
	settled
	// retired: a proof showed its bound loses to the k-th member; it
	// is never bounded or offered again (see safe.go).
	retired
)

// slot is one candidate: a document seen in at least one list.
type slot struct {
	doc postings.DocID
	// class is the candidate's interned seen-mask (classTable).
	class int32
	// head and tail are the ends of the contribution chain; tailPos is
	// the tail's canonical position, the highest seen so far.
	head, tail, tailPos int32
	state               candState
	// canon is the canonical-order sum of the seen contributions — the
	// exact float64 an exhaustive DF accumulator holds after the same
	// terms; canon / W_d is the score.
	canon float64
}

// node is one (list, contribution) pair of a candidate. A candidate's
// nodes form a chain in ascending canonical position.
type node struct {
	contrib float64
	pos     int32
	next    int32 // -1 at the tail
}

// tableEntry maps a document to its slot: ref is the slot index plus
// one, zero for an empty entry. The document is repeated here so a
// probe that misses never touches the slot array.
type tableEntry struct {
	doc postings.DocID
	ref int32
}

// candTable is the DocID → slot table: linear probing over a
// power-of-two index kept at most half full, slots dense in arrival
// order, contribution nodes in one append-only arena.
type candTable struct {
	index []tableEntry
	shift uint // 32 − log2(len(index)): Fibonacci hashing keeps the top bits
	slots []slot
	arena []node
	// warmed keeps warm's loads from being optimized away.
	warmed int32
}

// init sizes the table for at most docs candidates and postings
// contributions — the bounds the query's lists give. An evaluation
// that runs to exhaustion (the usual end on these lists) fills the
// arena exactly, so nothing is ever copied; one that stops early
// over-allocates by no more than the input it did not have to read.
func (t *candTable) init(docs, postings int) {
	size := 16
	for size < 2*docs {
		size *= 2
	}
	t.setIndex(size)
	t.slots = make([]slot, 0, docs)
	t.arena = make([]node, 0, postings)
}

func (t *candTable) setIndex(size int) {
	t.index = make([]tableEntry, size)
	t.shift = 32
	for s := size; s > 1; s /= 2 {
		t.shift--
	}
}

func (t *candTable) home(doc postings.DocID) int {
	return int(uint32(doc) * 0x9E3779B1 >> t.shift)
}

// warm loads the index entry each posting of a page will probe first.
// The loads do not depend on each other, so their cache misses overlap
// here instead of queuing one behind each absorb.
func (t *candTable) warm(entries []postings.Entry) {
	var refs int32
	for _, e := range entries {
		refs |= t.index[t.home(e.Doc)].ref
	}
	t.warmed = refs
}

// has reports whether the document is a candidate.
func (t *candTable) has(doc postings.DocID) bool {
	mask := len(t.index) - 1
	for i := t.home(doc); ; i = (i + 1) & mask {
		switch e := t.index[i]; {
		case e.ref == 0:
			return false
		case e.doc == doc:
			return true
		}
	}
}

// lookup returns the document's slot index, creating an empty slot
// (no class, no contributions yet) when the document is new.
func (t *candTable) lookup(doc postings.DocID) (si int32, fresh bool) {
	mask := len(t.index) - 1
	i := t.home(doc)
	for ; t.index[i].ref != 0; i = (i + 1) & mask {
		if t.index[i].doc == doc {
			return t.index[i].ref - 1, false
		}
	}
	if 2*(len(t.slots)+1) > len(t.index) {
		t.grow()
		i = t.vacancy(doc)
	}
	t.slots = push(t.slots, slot{doc: doc, head: -1, tail: -1, tailPos: -1})
	t.index[i] = tableEntry{doc: doc, ref: int32(len(t.slots))}
	return int32(len(t.slots) - 1), true
}

// grow doubles the index and re-enters every slot; slot indices, and
// with them the queue and the chains, are unaffected.
func (t *candTable) grow() {
	t.setIndex(2 * len(t.index))
	for si := range t.slots {
		doc := t.slots[si].doc
		t.index[t.vacancy(doc)] = tableEntry{doc: doc, ref: int32(si + 1)}
	}
}

// vacancy returns the first empty index entry on the probe path of a
// document that is not in the table.
func (t *candTable) vacancy(doc postings.DocID) int {
	mask := len(t.index) - 1
	i := t.home(doc)
	for ; t.index[i].ref != 0; i = (i + 1) & mask {
	}
	return i
}

// link adds a contribution from canonical list pos to the candidate's
// chain and refreshes canon, the chain's sum in canonical order — the
// same additions, in the same order, as exhaustive DF's accumulator.
// A position past the tail extends the sum by one addition; anything
// else is linked in place and the chain replayed. When the chain
// already has a node for pos (dup), the contribution is added to it
// instead.
func (t *candTable) link(c *slot, pos int32, contrib float64) (dup bool) {
	if pos > c.tailPos {
		t.arena = push(t.arena, node{contrib: contrib, pos: pos, next: -1})
		n := int32(len(t.arena) - 1)
		if c.tail < 0 {
			c.head = n
		} else {
			t.arena[c.tail].next = n
		}
		c.tail, c.tailPos = n, pos
		c.canon += contrib
		return false
	}
	// pos <= tailPos: the walk stops at a node, never off the end.
	sum := 0.0
	prev, n := int32(-1), c.head
	for ; t.arena[n].pos < pos; prev, n = n, t.arena[n].next {
		sum += t.arena[n].contrib
	}
	if t.arena[n].pos == pos {
		t.arena[n].contrib += contrib
		dup = true
	} else {
		t.arena = push(t.arena, node{contrib: contrib, pos: pos, next: n})
		n = int32(len(t.arena) - 1)
		if prev < 0 {
			c.head = n
		} else {
			t.arena[prev].next = n
		}
	}
	for ; n >= 0; n = t.arena[n].next {
		sum += t.arena[n].contrib
	}
	c.canon = sum
	return dup
}

// maskClass is one distinct seen-mask and what is known about every
// candidate carrying it.
type maskClass struct {
	// count is the number of candidates in the class.
	count int32
	// complete: the mask covers every live list, so each member has
	// been seen in, or proven absent from, every list of the query.
	complete bool
	// gen and unseen memoise Σ boundary contributions of the live
	// lists outside the mask for the proof numbered gen.
	gen    int32
	unseen float64
	// viaPos/viaClass remember the last transition out of this class
	// (the class of mask ∪ {viaPos}); a page's entries mostly repeat it.
	viaPos   int32
	viaClass int32
}

// classTable interns seen-masks: class c's mask is
// masks[c*words:(c+1)*words], found through an open-addressing index
// of class numbers (plus one; zero is empty) hashed by mask.
type classTable struct {
	// live is the run's live-list mask (shared, updated in place).
	live    []uint64
	words   int
	masks   []uint64
	classes []maskClass
	index   []int32
	shift   uint // 64 − log2(len(index))
	scratch []uint64
}

func (t *classTable) init(live []uint64) {
	t.live = live
	t.words = len(live)
	t.index = make([]int32, 64)
	t.shift = 64 - 6
	t.scratch = make([]uint64, len(live))
}

func (t *classTable) home(mask []uint64) int {
	h := uint64(0)
	for _, w := range mask {
		h = (h ^ w) * 0x9E3779B97F4A7C15
	}
	return int(h >> t.shift)
}

func (t *classTable) at(c int32) *maskClass { return &t.classes[c] }

func (t *classTable) mask(c int32) []uint64 {
	return t.masks[int(c)*t.words : (int(c)+1)*t.words]
}

// solo interns the mask {pos}.
func (t *classTable) solo(pos int) int32 {
	for i := range t.scratch {
		t.scratch[i] = 0
	}
	t.scratch[pos/64] = 1 << (pos % 64)
	return t.intern()
}

// with returns the class of from's mask ∪ {pos}.
func (t *classTable) with(from int32, pos int) int32 {
	if cl := &t.classes[from]; cl.viaPos == int32(pos) {
		return cl.viaClass
	}
	copy(t.scratch, t.mask(from))
	t.scratch[pos/64] |= 1 << (pos % 64)
	to := t.intern()
	cl := &t.classes[from]
	cl.viaPos, cl.viaClass = int32(pos), to
	return to
}

// intern finds or creates the class of the mask in scratch. A new
// class is complete from birth when its mask already covers live.
func (t *classTable) intern() int32 {
	mask := len(t.index) - 1
	i := t.home(t.scratch)
probe:
	for ; t.index[i] != 0; i = (i + 1) & mask {
		for wi, w := range t.mask(t.index[i] - 1) {
			if w != t.scratch[wi] {
				continue probe
			}
		}
		return t.index[i] - 1
	}
	for _, w := range t.scratch {
		t.masks = push(t.masks, w)
	}
	t.classes = push(t.classes, maskClass{complete: covers(t.scratch, t.live), viaPos: -1})
	c := int32(len(t.classes))
	t.index[i] = c
	if 2*len(t.classes) > len(t.index) {
		t.grow()
	}
	return c - 1
}

func (t *classTable) grow() {
	t.index = make([]int32, 2*len(t.index))
	t.shift--
	mask := len(t.index) - 1
	for c := range t.classes {
		i := t.home(t.mask(int32(c)))
		for ; t.index[i] != 0; i = (i + 1) & mask {
		}
		t.index[i] = int32(c + 1)
	}
}

// covers reports whether the mask includes every live list.
func covers(mask, live []uint64) bool {
	for i, l := range live {
		if l&^mask[i] != 0 {
			return false
		}
	}
	return true
}

// completeCovered marks every class whose mask now covers live as
// complete and returns how many candidates that completed.
func (t *classTable) completeCovered() int {
	n := 0
	for c := range t.classes {
		cl := &t.classes[c]
		if !cl.complete && covers(t.mask(int32(c)), t.live) {
			cl.complete = true
			n += int(cl.count)
		}
	}
	return n
}

// topK is a min-heap of at most k scored documents under rank.Before:
// the root is the weakest kept, so h[0] of a full heap is the k-th
// best ever offered — selected by the same total order as rank.TopN.
type topK struct {
	k int
	h []rank.ScoredDoc
}

// offer keeps sd if it ranks among the k best offered so far.
func (t *topK) offer(sd rank.ScoredDoc) {
	if len(t.h) < t.k {
		t.h = append(t.h, sd)
		t.up(len(t.h) - 1)
	} else if rank.Before(sd, t.h[0]) {
		t.h[0] = sd
		t.down(0)
	}
}

// rescore re-keys the member with sd's document to sd's (higher)
// score, or offers sd when the document is not a member.
func (t *topK) rescore(sd rank.ScoredDoc) {
	for i := range t.h {
		if t.h[i].Doc == sd.Doc {
			t.h[i] = sd
			t.down(i)
			return
		}
	}
	t.offer(sd)
}

func (t *topK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !rank.Before(t.h[parent], t.h[i]) {
			break
		}
		t.h[parent], t.h[i] = t.h[i], t.h[parent]
		i = parent
	}
}

func (t *topK) down(i int) {
	for {
		weakest := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(t.h); c++ {
			if rank.Before(t.h[weakest], t.h[c]) {
				weakest = c
			}
		}
		if weakest == i {
			return
		}
		t.h[i], t.h[weakest] = t.h[weakest], t.h[i]
		i = weakest
	}
}

// ranked returns the kept documents in result order, leaving the heap
// intact.
func (t *topK) ranked() []rank.ScoredDoc {
	out := append([]rank.ScoredDoc{}, t.h...)
	rank.SortDesc(out)
	return out
}
