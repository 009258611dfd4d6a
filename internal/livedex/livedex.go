// Package livedex implements the live-update machinery behind a
// mutable index: an in-memory frequency-ordered delta absorbing
// document additions, and a commit step that derives the combined
// (main + delta) index metadata and inverted lists exactly as
// postings.Build would over the merged corpus. Pages cuts a commit's
// lists into its pages, which a storage.Store serves: a commit and a
// merge publish the same kind of store.
//
// The design inverts the usual "approximate now, exact after merge"
// trade: the combined metadata IS the from-scratch rebuild's metadata,
// bit for bit. Each commit uses Build's own pieces over the merged
// lists — the entry order postings.Before, the page layout
// postings.Paginate, idf_t = log2(N/f_t) from postings.IDFValue — and
// Build's per-document sum-of-squares accumulation sequence for W_d,
// so every evaluation method (exhaustive, DF, BAF, MAXSCORE) answers
// over the live index exactly as it would over a rebuilt one.
// Bit-identity is structural, not asserted after the fact; the
// metamorphic harness at the root of the repository then verifies the
// structure.
//
// The cost of exactness is that every commit is O(total postings):
// adding one document changes N, which changes every term's idf,
// which changes every document's W_d (Equation 2), so the W_d pass
// must walk every list. The pass is pure float arithmetic over
// memory-resident lists (no sorting, no I/O); batching additions
// amortizes it. Real systems buy ingestion speed by letting global
// statistics go stale between merges — this reproduction keeps the
// paper's exactness gate and pays the pass.
//
// Concurrency: a State is NOT safe for concurrent use; the owning
// index serializes mutations. The artifacts a commit publishes
// (Combined and the pages Pages cuts from it) are immutable after
// construction and safe for any degree of concurrent reading — queries
// run against a published epoch, never against the State.
package livedex

import (
	"fmt"
	"math"
	"sort"

	"bufir/internal/postings"
	"bufir/internal/storage"
)

// State is the mutable side of a live index: the frozen main
// generation (metadata, physical store, and its memory-resident
// lists) plus the pending delta. Mutations (AddDoc, Commit,
// ApplyMerge) must be externally serialized.
type State struct {
	pageSize int
	// baseDocs is the document count of the main generation; delta
	// documents are numbered from here.
	baseDocs int

	// mainIx is the frozen metadata of the main generation. Never
	// mutated: commits build fresh combined metadata around it.
	mainIx *postings.Index
	// mainStore is the main generation's physical page store, which
	// MainStore reports; commits never read it.
	mainStore storage.PageStore
	// mainLists[t] is term t's main-generation inverted list,
	// memory-resident so commits can merge and re-derive W_d without
	// touching the physical store. For the in-memory simulator this
	// duplicates nothing conceptually (the store holds the same pages);
	// for file-backed generations it is the price of O(postings)
	// commits instead of O(file I/O) ones.
	mainLists [][]postings.Entry

	// names is the live vocabulary in TermID order: the main
	// generation's terms in their original order, then new terms in
	// order of first appearance. vocab is its inverse.
	names []string
	vocab map[string]postings.TermID

	// delta[t] holds term t's pending postings; each commit sorts them
	// into frequency order in place and merges them into a fresh list,
	// so no published epoch shares them.
	delta map[postings.TermID][]postings.Entry
	// deltaDocs counts the delta documents, numbered from baseDocs.
	// Their names are the caller's to keep.
	deltaDocs int

	deltaEntries int
}

// NewState wraps a frozen main generation. mainPages are the
// generation's page payloads, indexed by PageID (callers that only
// hold a physical store materialize them with ReadQuiet first).
func NewState(mainIx *postings.Index, mainStore storage.PageStore, mainPages [][]postings.Entry) (*State, error) {
	if mainIx == nil || mainStore == nil {
		return nil, fmt.Errorf("livedex: nil index or store")
	}
	if len(mainPages) != mainIx.NumPagesTotal {
		return nil, fmt.Errorf("livedex: %d pages supplied, index has %d", len(mainPages), mainIx.NumPagesTotal)
	}
	s := &State{
		pageSize:  mainIx.PageSize,
		baseDocs:  mainIx.NumDocs,
		mainIx:    mainIx,
		mainStore: mainStore,
		mainLists: make([][]postings.Entry, len(mainIx.Terms)),
		names:     make([]string, len(mainIx.Terms)),
		vocab:     make(map[string]postings.TermID, len(mainIx.Terms)),
		delta:     make(map[postings.TermID][]postings.Entry),
	}
	for t := range mainIx.Terms {
		s.mainLists[t] = postings.ListPostings(mainPages, mainIx, postings.TermID(t))
		s.names[t] = mainIx.Terms[t].Name
		s.vocab[mainIx.Terms[t].Name] = postings.TermID(t)
	}
	return s, nil
}

// NumDocs returns the live document count N = main + delta.
func (s *State) NumDocs() int { return s.baseDocs + s.deltaDocs }

// MainIndex returns the frozen main generation's metadata (read-only;
// changes only at ApplyMerge).
func (s *State) MainIndex() *postings.Index { return s.mainIx }

// MainStore returns the main generation's physical page store
// (changes only at ApplyMerge).
func (s *State) MainStore() storage.PageStore { return s.mainStore }

// DeltaDocs returns how many documents the delta holds.
func (s *State) DeltaDocs() int { return s.deltaDocs }

// DeltaEntries returns how many postings the delta holds.
func (s *State) DeltaEntries() int { return s.deltaEntries }

// AddDoc appends one document to the delta: the next DocID is
// assigned, and each (term, frequency) pair becomes a pending posting.
// New terms join the vocabulary in lexicographic order within the
// document (the map carries no order of its own, and TermID assignment
// must be deterministic — idf ties in the evaluators break on TermID).
// A document with no terms is legal: it grows N and nothing else.
// name only labels errors: the State keeps no document names. The
// delta is unbounded; callers decide when to Commit and Merge.
func (s *State) AddDoc(name string, counts map[string]int) (postings.DocID, error) {
	terms := make([]string, 0, len(counts))
	for term, f := range counts {
		if term == "" {
			return 0, fmt.Errorf("livedex: empty term in document %q", name)
		}
		if f < 1 {
			return 0, fmt.Errorf("livedex: term %q has non-positive frequency %d in document %q", term, f, name)
		}
		if int64(f) > int64(int32(^uint32(0)>>1)) {
			return 0, fmt.Errorf("livedex: term %q frequency %d overflows int32", term, f)
		}
		terms = append(terms, term)
	}
	sort.Strings(terms)
	doc := postings.DocID(s.NumDocs())
	for _, term := range terms {
		id, ok := s.vocab[term]
		if !ok {
			id = postings.TermID(len(s.names))
			s.names = append(s.names, term)
			s.vocab[term] = id
		}
		s.delta[id] = append(s.delta[id], postings.Entry{Doc: doc, Freq: int32(counts[term])})
		s.deltaEntries++
	}
	s.deltaDocs++
	return doc, nil
}

// Combined is one commit's published artifacts: metadata bit-identical
// to postings.Build over the merged corpus, and the full combined lists
// its page geometry describes (Pages cuts them into the commit's pages;
// ApplyMerge makes them the next generation's main lists). Immutable
// after Commit returns.
type Combined struct {
	Meta *postings.Index
	// Lists[t] is term t's full combined inverted list in physical
	// order: the exact entry sequence postings.Build would produce. An
	// untouched term's list is its main list; a touched term's is a
	// fresh array.
	Lists [][]postings.Entry
}

// mergeLists appends to dst the merge of two lists in postings.Before
// order. Main and delta document sets are disjoint (delta documents
// are newly assigned), so the order is strict and the merge equals any
// correct sort of the concatenation, postings.Build's included.
func mergeLists(dst, main, delta []postings.Entry) []postings.Entry {
	i, j := 0, 0
	for i < len(main) && j < len(delta) {
		if postings.Before(main[i], delta[j]) {
			dst = append(dst, main[i])
			i++
		} else {
			dst = append(dst, delta[j])
			j++
		}
	}
	dst = append(dst, main[i:]...)
	return append(dst, delta[j:]...)
}

// Commit derives the combined index artifacts for the current
// main + delta contents. It does not consume the delta: the State
// keeps accumulating, and a later Commit publishes a superset. The
// returned Combined shares nothing mutable with the State.
//
// The metadata construction is postings.Build's over the merged
// corpus:
//
//   - terms in TermID order (main order, then new terms by first
//     appearance), each list in postings.Before order;
//   - per-term DF, idf_t via postings.IDFValue with the combined N,
//     FMax, and the page layout of postings.Paginate;
//   - W_d accumulated as w = f_dt * idf_t; sum += w*w in the same
//     term-major, list-order sequence Build uses, sqrt at the end.
//
// Floating-point addition is order-sensitive, so the sequence — not
// just the set — of operations matching Build is what makes the
// combined scores bit-identical to a rebuild's.
func (s *State) Commit() (*Combined, error) {
	numDocs := s.NumDocs()
	nTerms := len(s.names)
	meta := &postings.Index{
		NumDocs:  numDocs,
		PageSize: s.pageSize,
		Terms:    make([]postings.TermMeta, 0, nTerms),
		Vocab:    make(map[string]postings.TermID, nTerms),
		DocLen:   make([]float64, numDocs),
	}
	c := &Combined{
		Meta:  meta,
		Lists: make([][]postings.Entry, nTerms),
	}
	sumSq := meta.DocLen // accumulate sum of squares, sqrt at the end

	for t := 0; t < nTerms; t++ {
		var list []postings.Entry
		if t < len(s.mainLists) {
			list = s.mainLists[t]
		}
		dl := s.delta[postings.TermID(t)]
		if len(list)+len(dl) == 0 {
			return nil, fmt.Errorf("livedex: term %q has an empty inverted list", s.names[t])
		}
		tm := postings.TermMeta{Name: s.names[t]}
		if len(dl) == 0 {
			// Untouched term: its list and page layout are the main
			// generation's; the page bounds are copied from it.
			tid := postings.TermID(t)
			meta.AppendBounds(&tm, s.mainIx.PageMinFreq(tid), s.mainIx.PageMaxFreq(tid))
		} else {
			// Touched term: merge into a fresh list and re-page it. No
			// published page aliases the delta, so it sorts in place.
			sort.Slice(dl, func(i, j int) bool { return postings.Before(dl[i], dl[j]) })
			list = mergeLists(make([]postings.Entry, 0, len(list)+len(dl)), list, dl)
			meta.AppendList(&tm, list, nil)
		}
		idf := postings.IDFValue(numDocs, len(list))
		tm.DF, tm.IDF, tm.FMax = len(list), idf, list[0].Freq
		for _, e := range list {
			w := float64(e.Freq) * idf
			sumSq[e.Doc] += w * w
		}
		c.Lists[t] = list
		meta.Vocab[s.names[t]] = postings.TermID(t)
		meta.Terms = append(meta.Terms, tm)
	}
	for d := range sumSq {
		meta.DocLen[d] = math.Sqrt(sumSq[d])
	}
	if err := meta.RebuildPageMaps(); err != nil {
		return nil, err
	}
	return c, nil
}

// ApplyMerge compacts a committed Combined into the State's new main
// generation: the combined metadata becomes the main metadata (merge
// changes no logical content, so the metadata is reused as-is), the
// combined lists become the main lists, newStore becomes the physical
// store, and the delta empties. newStore must hold exactly the pages
// Pages(c) returns — the caller materializes them (in memory or into a
// BUFIR3 generation file) and wraps them however it serves reads.
func (s *State) ApplyMerge(c *Combined, newStore storage.PageStore) error {
	if newStore.NumPages() != c.Meta.NumPagesTotal {
		return fmt.Errorf("livedex: merge store has %d pages, combined index %d", newStore.NumPages(), c.Meta.NumPagesTotal)
	}
	// Only a Combined reflecting every pending add may become the main
	// generation; an earlier commit would silently drop the postings
	// added since.
	if c.Meta.NumDocs != s.NumDocs() {
		return fmt.Errorf("livedex: merge of a stale commit (%d docs, state has %d)", c.Meta.NumDocs, s.NumDocs())
	}
	s.mainIx = c.Meta
	s.mainStore = newStore
	s.mainLists = c.Lists
	s.baseDocs = c.Meta.NumDocs
	s.delta = make(map[postings.TermID][]postings.Entry)
	s.deltaDocs = 0
	s.deltaEntries = 0
	return nil
}

// Pages materializes the combined page payloads (indexed by combined
// PageID) from a commit's lists — exactly the pages postings.Build
// would emit for the merged corpus. The slices alias c.Lists.
func Pages(c *Combined) [][]postings.Entry {
	pages := make([][]postings.Entry, 0, c.Meta.NumPagesTotal)
	for _, list := range c.Lists {
		postings.Paginate(list, c.Meta.PageSize, func(_ int, page []postings.Entry) { pages = append(pages, page) })
	}
	return pages
}
