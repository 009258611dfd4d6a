package eval

import (
	"sync"

	"bufir/internal/postings"
)

// accTable is the accumulator set A of a DF, BAF or WEB evaluation:
// the candidates dense in arrival order (docs, vals), a docIndex from
// document to position, and in front of it a presence bitmap with one
// bit per document of the index. Most probes of Figure 1 step 4(c)iii
// miss — the document was never inserted — and a miss costs one bit
// test, never a walk of the index.
type accTable struct {
	docIndex
	present []uint64
	docs    []postings.DocID
	vals    []float64
}

// maxPooledIndex caps the index a released table may keep: a table
// grown past it (an unfiltered run over a large collection) is left to
// the garbage collector instead of being pooled, so the pool holds at
// most 128 KiB of index per table.
const maxPooledIndex = 1 << 14

// accTables recycles accumulator tables across evaluations: a table
// comes back reset through its own candidate list, so the next
// evaluation pays for neither allocation nor a full clear. A sync.Pool
// and not an Evaluator field, because concurrent evaluations on one
// Evaluator each need their own table.
var accTables = sync.Pool{New: func() any { return new(accTable) }}

// getAccTable returns an empty table whose bitmap covers numDocs
// documents.
func getAccTable(numDocs int) *accTable {
	t := accTables.Get().(*accTable)
	if t.index == nil {
		t.setIndex(64)
	}
	if words := (numDocs + 63) / 64; len(t.present) < words {
		t.present = make([]uint64, words)
	}
	return t
}

// putAccTable resets t and returns it to the pool, unless its index
// grew past maxPooledIndex.
func putAccTable(t *accTable) {
	if len(t.index) > maxPooledIndex {
		return
	}
	t.reset()
	accTables.Put(t)
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

// pos returns the position of a document that is a candidate.
func (t *accTable) pos(doc postings.DocID) int32 {
	return t.index[t.find(doc)].ref - 1
}

// slot returns the document's position, inserting it with a zero
// accumulator when it is not yet a candidate.
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
