// Package text is the root's text path: the lexical pipeline that
// turns raw document text into index terms (tokenization, stop-word
// removal and Porter stemming, following the setup of
// Jónsson/Franklin/Srivastava, SIGMOD 1998, §4.2: non-words
// (punctuation, numbers, ...) are removed, terms are lower-cased and
// stemmed, and the most frequent terms of the collection are treated
// as stop-words), the inverted-index build over it (Build), and the
// positional index with the phrase and proximity operators of §2.1's
// footnote 2 (BuildPositional).
package text

import (
	"sort"
	"strings"
	"unicode"
)

// Tokenize splits text into lower-case alphabetic tokens. Any run of
// characters containing a non-letter terminates the current token;
// purely numeric or punctuation runs produce no token, matching the
// paper's removal of "non-words (punctuation, numbers, etc.)".
func Tokenize(text string) []string {
	tokens := make([]string, 0, len(text)/6)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// Pipeline bundles the full lexical pipeline: tokenize, drop
// stop-words, stem. A nil stop-word set means no stop-word removal.
type Pipeline struct {
	stop    map[string]bool
	minLen  int
	stemmer func(string) string
}

// NewPipeline returns a Pipeline that removes the given stop-words
// (matched before stemming, as in the paper where stop-words are the
// collection's most frequent raw terms) and stems the remainder with
// the Porter stemmer. Tokens shorter than two letters are dropped.
func NewPipeline(stopwords []string) *Pipeline {
	stop := make(map[string]bool, len(stopwords))
	for _, w := range stopwords {
		stop[strings.ToLower(w)] = true
	}
	return &Pipeline{stop: stop, minLen: 2, stemmer: Stem}
}

// DisableStemming makes the pipeline index raw lower-cased tokens.
func (p *Pipeline) DisableStemming() {
	p.stemmer = func(s string) string { return s }
}

// Terms runs the pipeline over text and returns the resulting index
// terms in document order (duplicates preserved; callers aggregate
// occurrences into (d, f_dt) entries).
func (p *Pipeline) Terms(text string) []string {
	raw := Tokenize(text)
	out := raw[:0]
	for _, tok := range raw {
		if len(tok) < p.minLen || p.stop[tok] {
			continue
		}
		out = append(out, p.stemmer(tok))
	}
	return out
}

// CountTerms aggregates the pipeline output for text into a term ->
// within-document frequency map (f_dt values).
func (p *Pipeline) CountTerms(text string) map[string]int {
	counts := make(map[string]int)
	for _, t := range p.Terms(text) {
		counts[t]++
	}
	return counts
}

// TopFrequentTerms returns the n terms with highest document frequency
// from the given term -> document-frequency map, for use as a
// collection-derived stop-word list (the paper used the 100 most
// common words). Ties are broken lexicographically so the result is
// deterministic.
func TopFrequentTerms(df map[string]int, n int) []string {
	type tf struct {
		term string
		df   int
	}
	all := make([]tf, 0, len(df))
	for t, f := range df {
		all = append(all, tf{t, f})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].df != all[j].df {
			return all[i].df > all[j].df
		}
		return all[i].term < all[j].term
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].term
	}
	return out
}
