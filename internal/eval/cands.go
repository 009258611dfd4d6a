package eval

import "bufir/internal/postings"

// The rank-safe state of one evaluation beside the candidate table
// (acc.go): each candidate's slot, its contribution chain in the
// table's arena, and the interned seen-masks. Every type here is
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

// slot is one candidate's rank-safe state; the document and its
// canonical sum are the table's docs and vals at the same position.
// The sum is the canonical-order sum of the seen contributions — the
// exact float64 an exhaustive DF accumulator holds after the same
// terms; sum / W_d is the score.
type slot struct {
	// class is the candidate's interned seen-mask (classTable).
	class int32
	// head and tail are the ends of the contribution chain; tailPos is
	// the tail's canonical position, the highest seen so far.
	head, tail, tailPos int32
	state               candState
}

// node is one (list, contribution) pair of a candidate. A candidate's
// nodes form a chain in ascending canonical position.
type node struct {
	contrib float64
	pos     int32
	next    int32 // -1 at the tail
}

// warm loads the index entry each posting of a page will probe first.
// The loads do not depend on each other, so their cache misses overlap
// here instead of queuing one behind each absorb.
func (t *accTable) warm(entries []postings.Entry) {
	var refs int32
	for _, e := range entries {
		refs |= t.index[t.home(e.Doc)].ref
	}
	t.warmed = refs
}

// link adds a contribution from canonical list pos to candidate si's
// chain and refreshes vals[si], the chain's sum in canonical order — the
// same additions, in the same order, as exhaustive DF's accumulator.
// A position past the tail extends the sum by one addition; anything
// else is linked in place and the chain replayed. When the chain
// already has a node for pos (dup), the contribution is added to it
// instead.
func (t *accTable) link(si, pos int32, contrib float64) (dup bool) {
	c := &t.slots[si]
	if pos > c.tailPos {
		t.arena = push(t.arena, node{contrib: contrib, pos: pos, next: -1})
		n := int32(len(t.arena) - 1)
		if c.tail < 0 {
			c.head = n
		} else {
			t.arena[c.tail].next = n
		}
		c.tail, c.tailPos = n, pos
		t.vals[si] += contrib
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
	t.vals[si] = sum
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
