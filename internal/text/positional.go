package text

// The positional index behind the phrase operator, one of the
// operators the paper explicitly defers ("In many systems, additional
// operators, such as proximity operators, which restrict the location
// of terms in the documents, are provided. For simplicity we have left
// such operators out of this work; adding support for them is one
// avenue for future work" — §2.1, footnote 2).
//
// The index records, per (term, document), the ordered token positions
// of the term after the lexical pipeline (stop-words removed, stems
// applied), enabling Phrase(t1 t2 ... tn): the documents containing
// the terms at strictly consecutive positions.

import (
	"fmt"
	"sort"

	"bufir/internal/postings"
)

// Posting is one document's occurrence list for a term.
type Posting struct {
	Doc postings.DocID
	// Positions are 0-based token offsets after the lexical pipeline,
	// ascending.
	Positions []int32
}

// PositionalIndex is a positional inverted index. It is immutable
// after BuildPositional.
type PositionalIndex struct {
	// NumDocs is the collection size.
	NumDocs int
	// terms maps stemmed term -> doc-sorted postings.
	terms map[string][]Posting
	// pipe normalizes query terms identically to the documents.
	pipe *Pipeline
}

// BuildPositional indexes the document texts through the given
// pipeline (nil selects a pipeline without stop-words). Document IDs
// are assigned in input order, matching Build over the same slice.
func BuildPositional(texts []string, pipe *Pipeline) (*PositionalIndex, error) {
	if len(texts) == 0 {
		return nil, fmt.Errorf("text: no documents")
	}
	if pipe == nil {
		pipe = NewPipeline(nil)
	}
	ix := &PositionalIndex{
		NumDocs: len(texts),
		terms:   make(map[string][]Posting),
		pipe:    pipe,
	}
	for d, text := range texts {
		positionsOf := make(map[string][]int32)
		for pos, term := range pipe.Terms(text) {
			positionsOf[term] = append(positionsOf[term], int32(pos))
		}
		// Deterministic term order per document.
		terms := make([]string, 0, len(positionsOf))
		for t := range positionsOf {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		for _, t := range terms {
			ix.terms[t] = append(ix.terms[t], Posting{
				Doc:       postings.DocID(d),
				Positions: positionsOf[t],
			})
		}
	}
	return ix, nil
}

// NumTerms returns the vocabulary size.
func (ix *PositionalIndex) NumTerms() int { return len(ix.terms) }

// Postings returns the positional postings of a raw surface term
// (normalized through the pipeline), or nil if absent.
func (ix *PositionalIndex) Postings(term string) []Posting {
	norm := ix.normalize(term)
	if norm == "" {
		return nil
	}
	return ix.terms[norm]
}

// normalize runs one word through the pipeline; stop-words and empty
// results normalize to "".
func (ix *PositionalIndex) normalize(term string) string {
	ts := ix.pipe.Terms(term)
	if len(ts) != 1 {
		return ""
	}
	return ts[0]
}

// Phrase returns the documents containing the given terms at strictly
// consecutive positions, in ascending DocID order. Terms pass through
// the pipeline; a phrase containing a stop-word or unknown term
// matches nothing (boolean-style strictness — the caller can relax).
func (ix *PositionalIndex) Phrase(terms []string) ([]postings.DocID, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("text: empty phrase")
	}
	norm := make([]string, len(terms))
	for i, t := range terms {
		norm[i] = ix.normalize(t)
		if norm[i] == "" {
			return nil, nil // stop-word or unindexable: no strict match
		}
		if _, ok := ix.terms[norm[i]]; !ok {
			return nil, nil
		}
	}
	// Start from the first term's candidate positions, then for each
	// subsequent term keep positions p+1 that exist in its list.
	cand := map[postings.DocID][]int32{}
	for _, p := range ix.terms[norm[0]] {
		cand[p.Doc] = p.Positions
	}
	for _, t := range norm[1:] {
		next := map[postings.DocID][]int32{}
		for _, p := range ix.terms[t] {
			prev, ok := cand[p.Doc]
			if !ok {
				continue
			}
			if matched := advance(prev, p.Positions); len(matched) > 0 {
				next[p.Doc] = matched
			}
		}
		cand = next
		if len(cand) == 0 {
			break
		}
	}
	out := make([]postings.DocID, 0, len(cand))
	for d := range cand {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// advance returns, for each position p in prev such that p+1 occurs in
// cur, the value p+1 (the phrase-extension positions). Both inputs are
// ascending.
func advance(prev, cur []int32) []int32 {
	out := make([]int32, 0, min(len(prev), len(cur)))
	j := 0
	for _, p := range prev {
		want := p + 1
		for j < len(cur) && cur[j] < want {
			j++
		}
		if j < len(cur) && cur[j] == want {
			out = append(out, want)
		}
	}
	return out
}
