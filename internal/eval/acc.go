package eval

import (
	"sync"
	"unsafe"

	"bufir/internal/postings"
)

// accTable is the candidate set of every method — Figure 1's
// accumulator set A under DF, BAF and WEB, the rank-safe methods'
// candidates under TA, NRA and MAXSCORE: the documents dense in arrival
// order (docs, and vals holding each one's accumulator), an index from
// document to position, and in front of it a presence bitmap with one
// bit per document of the index. Most probes of Figure 1 step 4(c)iii
// miss — the document was never inserted — and a miss costs one bit
// test, never a walk of the index. The rank-safe methods keep their
// per-candidate state beside docs: slots[i] is docs[i]'s, and arena
// holds every contribution node (cands.go).
type accTable struct {
	// index maps a document to its position: linear probing over a
	// power-of-two array of entries, kept at most half full.
	index   []tableEntry
	shift   uint // 32 − log2(len(index)): Fibonacci hashing keeps the top bits
	present []uint64
	docs    []postings.DocID
	vals    []float64
	slots   []slot
	arena   []node
	// warmed keeps warm's loads from being optimized away.
	warmed int32
}

// tableEntry maps a document to its position: ref is the position plus
// one, zero for an empty entry. The document is repeated here so a
// probe walks the index alone.
type tableEntry struct {
	doc postings.DocID
	ref int32
}

// maxPooledBytes caps what a released table may keep, counting every
// array it holds: a table past it (an unfiltered run over a large
// collection, a rank-safe run of 10^4 candidates) is left to the
// garbage collector instead of being pooled. A DF table whose index has
// 2^14 entries (8 192 accumulators) keeps 240 KiB plus its bitmap.
const maxPooledBytes = 256 << 10

// accTables recycles tables across evaluations: a table comes back
// reset through its own candidate list, so the next evaluation pays for
// neither allocation nor a full clear. A sync.Pool and not an Evaluator
// field, because concurrent evaluations on one Evaluator each need
// their own table.
var accTables = sync.Pool{New: func() any { return new(accTable) }}

// getAccTable returns an empty table whose bitmap covers numDocs
// documents, with room for docs candidates and entries contributions —
// the bounds a rank-safe run's lists give; DF, BAF and WEB pass zero
// and grow on demand. A run that exhausts its lists fills the arena
// exactly, so nothing is copied; one that stops early over-reserves by
// no more than the input it did not have to read.
func getAccTable(numDocs, docs, entries int) *accTable {
	t := accTables.Get().(*accTable)
	if words := (numDocs + 63) / 64; len(t.present) < words {
		t.present = make([]uint64, words)
	}
	size := 64
	for size < 2*docs {
		size *= 2
	}
	if len(t.index) < size {
		t.setIndex(size)
	}
	t.docs = reserve(t.docs, docs)
	t.vals = reserve(t.vals, docs)
	t.slots = reserve(t.slots, docs)
	t.arena = reserve(t.arena, entries)
	return t
}

// reserve returns s, or an empty slice of capacity n when s has less.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s
}

// putAccTable resets t and returns it to the pool, unless it keeps more
// than maxPooledBytes.
func putAccTable(t *accTable) {
	if t.bytes() > maxPooledBytes {
		return
	}
	t.reset()
	accTables.Put(t)
}

// bytes is what the table retains: every backing array at capacity.
func (t *accTable) bytes() int {
	return len(t.index)*int(unsafe.Sizeof(tableEntry{})) + 8*cap(t.present) +
		4*cap(t.docs) + 8*cap(t.vals) +
		cap(t.slots)*int(unsafe.Sizeof(slot{})) + cap(t.arena)*int(unsafe.Sizeof(node{}))
}

// reset empties the table through its candidate list. Every
// document's probe path holds only documents that arrived before it
// (growing re-enters them in arrival order), so clearing latest first
// keeps each path intact until its own entry goes.
func (t *accTable) reset() {
	for i := len(t.docs) - 1; i >= 0; i-- {
		doc := t.docs[i]
		t.present[uint32(doc)/64] &^= 1 << (uint32(doc) % 64)
		t.index[t.find(doc)] = tableEntry{}
	}
	t.docs, t.vals = t.docs[:0], t.vals[:0]
	t.slots, t.arena = t.slots[:0], t.arena[:0]
}

func (t *accTable) setIndex(size int) {
	t.index = make([]tableEntry, size)
	t.shift = 32
	for s := size; s > 1; s /= 2 {
		t.shift--
	}
}

func (t *accTable) home(doc postings.DocID) int {
	return int(uint32(doc) * 0x9E3779B1 >> t.shift)
}

// has reports whether the document is a candidate.
func (t *accTable) has(doc postings.DocID) bool {
	return t.present[uint32(doc)/64]&(1<<(uint32(doc)%64)) != 0
}

// find returns the index entry of a document that is a candidate. No
// empty entry lies on its probe path, so the walk needs no other stop.
func (t *accTable) find(doc postings.DocID) int {
	mask := len(t.index) - 1
	i := t.home(doc)
	for t.index[i].doc != doc {
		i = (i + 1) & mask
	}
	return i
}

// vacancy returns the first empty index entry on the probe path of a
// document that is not a candidate.
func (t *accTable) vacancy(doc postings.DocID) int {
	mask := len(t.index) - 1
	i := t.home(doc)
	for ; t.index[i].ref != 0; i = (i + 1) & mask {
	}
	return i
}

// pos returns the position of a document that is a candidate.
func (t *accTable) pos(doc postings.DocID) int32 {
	return t.index[t.find(doc)].ref - 1
}

// slot returns the document's position, inserting it with a zero
// accumulator when it is not yet a candidate. Growing the index
// re-enters every candidate; positions are unaffected.
func (t *accTable) slot(doc postings.DocID) int32 {
	if t.has(doc) {
		return t.pos(doc)
	}
	t.present[uint32(doc)/64] |= 1 << (uint32(doc) % 64)
	if 2*(len(t.docs)+1) > len(t.index) {
		t.setIndex(2 * len(t.index))
		for i, d := range t.docs {
			t.index[t.vacancy(d)] = tableEntry{doc: d, ref: int32(i + 1)}
		}
	}
	t.docs = append(t.docs, doc)
	t.vals = append(t.vals, 0)
	t.index[t.vacancy(doc)] = tableEntry{doc: doc, ref: int32(len(t.docs))}
	return int32(len(t.docs) - 1)
}
