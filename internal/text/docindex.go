package text

// Build turns raw document text into the paper's inverted index
// (§4.2): non-words removed, terms lower-cased, the most frequent raw
// terms dropped as stop-words, remaining terms Porter-stemmed,
// per-document occurrences summed into (d, f_dt) entries, and the
// resulting lists frequency-sorted and paged.

import (
	"fmt"
	"sort"

	"bufir/internal/postings"
)

// Document is one input document.
type Document struct {
	// Name is an external identifier (file name, headline, ...).
	Name string
	// Text is the raw document body.
	Text string
}

// Options controls index construction.
type Options struct {
	// PageSize is the page capacity in entries; 0 selects the paper's
	// 404.
	PageSize int
	// NumStopWords is how many of the most frequent raw terms to drop
	// (the paper used 100); negative disables stop-word removal.
	NumStopWords int
	// DisableStemming indexes raw lower-cased tokens instead of
	// Porter stems (useful for corpora of identifiers, and for
	// validating synthetic index generation against the text path).
	DisableStemming bool
}

// Result is a built document index.
type Result struct {
	Index *postings.Index
	// Pages are the inverted-list page payloads, indexed by PageID
	// (feed them to storage.NewStore).
	Pages [][]postings.Entry
	// DocNames maps DocID to the document's external name.
	DocNames []string
	// StopWords is the stop-word list that was applied, most frequent
	// first.
	StopWords []string
	// Pipeline is the lexical pipeline used; apply it to query text so
	// queries and documents agree on stemming and stop-words.
	Pipeline *Pipeline
}

// Build indexes the documents. DocIDs are assigned in input order.
func Build(docs []Document, opts Options) (*Result, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("text: no documents")
	}
	if opts.PageSize == 0 {
		opts.PageSize = postings.DefaultPageSize
	}
	if opts.NumStopWords == 0 {
		opts.NumStopWords = 100
	}
	if opts.NumStopWords < 0 {
		opts.NumStopWords = 0
	}

	// Pass 1: raw document frequencies determine the stop-word list.
	rawDF := make(map[string]int)
	for _, d := range docs {
		seen := make(map[string]bool)
		for _, tok := range Tokenize(d.Text) {
			if len(tok) < 2 || seen[tok] {
				continue
			}
			seen[tok] = true
			rawDF[tok]++
		}
	}
	// Cap stop-word removal at a tenth of the raw vocabulary: the
	// paper's 100 stop-words against 167k WSJ terms is well under
	// that, and the cap keeps toy corpora from losing their entire
	// vocabulary to the default.
	nStop := opts.NumStopWords
	if max := len(rawDF) / 10; nStop > max {
		nStop = max
	}
	stop := TopFrequentTerms(rawDF, nStop)
	pipe := NewPipeline(stop)
	if opts.DisableStemming {
		pipe.DisableStemming()
	}

	// Pass 2: stem and aggregate (d, f_dt) entries per term.
	byTerm := make(map[string][]postings.Entry)
	names := make([]string, len(docs))
	for i, d := range docs {
		names[i] = d.Name
		for term, f := range pipe.CountTerms(d.Text) {
			byTerm[term] = append(byTerm[term], postings.Entry{
				Doc:  postings.DocID(i),
				Freq: int32(f),
			})
		}
	}

	// Deterministic term order: lexicographic.
	terms := make([]string, 0, len(byTerm))
	for t := range byTerm {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	lists := make([]postings.TermPostings, len(terms))
	for i, t := range terms {
		lists[i] = postings.TermPostings{Name: t, Entries: byTerm[t]}
	}

	ix, pages, err := postings.Build(lists, len(docs), opts.PageSize)
	if err != nil {
		return nil, err
	}
	return &Result{
		Index:     ix,
		Pages:     pages,
		DocNames:  names,
		StopWords: stop,
		Pipeline:  pipe,
	}, nil
}
