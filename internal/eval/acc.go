package eval

import (
	"math/bits"
	"sync"

	"bufir/internal/postings"
	"bufir/internal/rank"
)

// accTable is Figure 1's accumulator array A, the candidate set of every
// method: vals holds document d's accumulator at index d, and a presence
// bitmap with one bit per document of the index says which documents
// are candidates. A probe of step 4(c)iii is one bit test, an insertion
// one bit set, and an accumulator is one indexed load — no hashing, no
// probe walk, no growth. A value is meaningful only under its bit, so an
// insertion writes it rather than adding to it, and emptying the table
// clears the bitmap alone.
type accTable struct {
	present []uint64
	vals    []float64
	// n counts the candidates, |A|.
	n int
}

// accTables recycles tables across evaluations, so a steady stream of
// evaluations allocates no candidate storage. A sync.Pool and not an
// Evaluator field, because concurrent evaluations on one Evaluator each
// need their own table.
var accTables = sync.Pool{New: func() any { return new(accTable) }}

// getAccTable returns an empty table covering numDocs documents. A
// pooled table sized for a smaller index — one that ingest has since
// grown, or a smaller collection — is regrown first, with an eighth
// more room: a live index grows by a document per commit, and a table
// regrown to the exact size would be reallocated at every one.
func getAccTable(numDocs int) *accTable {
	t := accTables.Get().(*accTable)
	if len(t.vals) < numDocs {
		if len(t.vals) > 0 {
			numDocs += numDocs / 8
		}
		t.present = make([]uint64, (numDocs+63)/64)
		t.vals = make([]float64, numDocs)
	}
	return t
}

// putAccTable empties t and returns it to the pool.
func putAccTable(t *accTable) {
	t.reset()
	accTables.Put(t)
}

// reset empties the table: the bitmap word by word, up to the word of
// the last candidate.
func (t *accTable) reset() {
	for w := 0; t.n > 0; w++ {
		t.n -= bits.OnesCount64(t.present[w])
		t.present[w] = 0
	}
}

// top is Figure 1 steps 5-6: normalize every accumulator by W_d and
// pick the k best under rank.Before. Documents of zero length never
// rank.
func (t *accTable) top(docLen []float64, k int) []rank.ScoredDoc {
	sel := rank.NewTopK(k, t.n)
	for w, left := 0, t.n; left > 0; w++ {
		for word := t.present[w]; word != 0; word &= word - 1 {
			doc := w*64 + bits.TrailingZeros64(word)
			if l := docLen[doc]; l > 0 {
				sel.Offer(rank.ScoredDoc{Doc: postings.DocID(doc), Score: t.vals[doc] / l})
			}
			left--
		}
	}
	return sel.Ranked()
}
