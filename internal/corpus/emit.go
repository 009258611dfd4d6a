package corpus

import (
	"math/rand"
	"strings"
)

// EmitDocuments materializes the generated collection as actual
// document texts: document d's text contains each of its terms
// repeated f_dt times, in a seed-shuffled order. Because corpus term
// names contain digits (which the tokenizer strips), terms are renamed
// to purely alphabetic identifiers; AlphaName gives the mapping.
//
// Feeding the emitted texts through text.Build with stop-words and
// stemming disabled reconstructs exactly the same inverted index —
// the validation that the direct index synthesis (DESIGN.md §2's
// substitution) and the full text pipeline are interchangeable. The
// equivalence is asserted by TestEmitDocumentsRoundTrip.
func EmitDocuments(col *Collection, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	// Invert: doc -> tokens (term repeated f times).
	tokens := make([][]string, col.NumDocs)
	for t, list := range col.Lists {
		name := AlphaName(t)
		for _, e := range list.Entries {
			for i := int32(0); i < e.Freq; i++ {
				tokens[e.Doc] = append(tokens[e.Doc], name)
			}
		}
	}
	texts := make([]string, col.NumDocs)
	for d, toks := range tokens {
		r.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
		texts[d] = strings.Join(toks, " ")
	}
	return texts
}

// AlphaName maps a term index to a purely alphabetic identifier
// ("qaaaa", "qaaab", ...) that survives tokenization unchanged and is
// long enough (>= 2 letters) to pass the pipeline's length filter.
func AlphaName(idx int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	buf := [6]byte{'q'}
	for i := 5; i >= 1; i-- {
		buf[i] = letters[idx%26]
		idx /= 26
	}
	return string(buf[:])
}
