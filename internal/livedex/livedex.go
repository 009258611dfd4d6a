// Package livedex implements the live-update machinery behind a
// mutable index: an in-memory frequency-ordered delta absorbing
// document additions, a commit step that derives the combined
// (main + delta) index metadata exactly as postings.Build would over
// the merged corpus, and page descriptors from which the delta-overlay
// page store (Overlay) synthesizes every combined page at read time.
//
// The design inverts the usual "approximate now, exact after merge"
// trade: the combined metadata IS the from-scratch rebuild's metadata,
// bit for bit. Each commit replays postings.Build's arithmetic — the
// same per-term entry order, the same idf_t = log2(N/f_t) from
// postings.IDFValue, the same per-document sum-of-squares accumulation
// sequence for W_d — over the merged lists, so every evaluation
// method (exhaustive, DF, BAF, MAXSCORE) answers over the
// live index exactly as it would over a rebuilt one. Bit-identity is
// structural, not asserted after the fact; the metamorphic harness at
// the root of the repository then verifies the structure.
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
// (Combined, Overlay) are immutable after construction and safe for
// any degree of concurrent reading — queries run against a published
// epoch, never against the State.
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
	// mainStore is the main generation's physical page store; the
	// Overlay reads untouched pages (and the main run of merged pages)
	// through it.
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

	// delta[t] holds term t's pending postings in arrival order; they
	// are sorted into frequency order on each commit (into a fresh
	// snapshot, so previously published epochs are never disturbed).
	delta map[postings.TermID][]postings.Entry
	// docNames names the delta documents, in DocID order from
	// baseDocs.
	docNames []string

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
func (s *State) NumDocs() int { return s.baseDocs + len(s.docNames) }

// MainIndex returns the frozen main generation's metadata (read-only;
// changes only at ApplyMerge).
func (s *State) MainIndex() *postings.Index { return s.mainIx }

// MainStore returns the main generation's physical page store
// (changes only at ApplyMerge).
func (s *State) MainStore() storage.PageStore { return s.mainStore }

// DeltaDocs returns how many documents the delta holds.
func (s *State) DeltaDocs() int { return len(s.docNames) }

// DeltaEntries returns how many postings the delta holds.
func (s *State) DeltaEntries() int { return s.deltaEntries }

// AddDoc appends one document to the delta: the next DocID is
// assigned, and each (term, frequency) pair becomes a pending posting.
// New terms join the vocabulary in lexicographic order within the
// document (the map carries no order of its own, and TermID assignment
// must be deterministic — idf ties in the evaluators break on TermID).
// A document with no terms is legal: it grows N and nothing else.
// The delta is unbounded; callers decide when to Commit and Merge.
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
	s.docNames = append(s.docNames, name)
	return doc, nil
}

// PageDesc describes one page of the combined virtual page space. A
// page of a term with no delta postings passes through to a main
// generation page untouched; a page of a touched term is the merge of
// a contiguous run of main entries with a contiguous run of delta
// entries (both runs are determined at commit, so synthesis reads only
// the main pages covering its run).
type PageDesc struct {
	// Term is the combined-vocabulary term owning the page.
	Term postings.TermID
	// Merged distinguishes the two forms.
	Merged bool
	// Main is the backing main-generation page (passthrough form).
	Main postings.PageID
	// MainLo/MainHi is the half-open main-entry range and
	// DeltaLo/DeltaHi the half-open delta-entry range merged into this
	// page (merged form). Offsets index the term's main list and its
	// frozen delta snapshot respectively.
	MainLo, MainHi   int32
	DeltaLo, DeltaHi int32
}

// Combined is one commit's published artifacts: metadata bit-identical
// to postings.Build over the merged corpus, the virtual page
// descriptors, the frozen per-term delta snapshots the descriptors
// index, and the full combined lists (shared with the metadata's page
// geometry; ApplyMerge chunks them into the next generation's pages).
// Immutable after Commit returns.
type Combined struct {
	Meta *postings.Index
	Desc []PageDesc
	// DeltaFrozen[t] is term t's delta postings sorted into frequency
	// order, frozen at commit (nil for untouched terms). Later AddDoc
	// calls never disturb it.
	DeltaFrozen [][]postings.Entry
	// Lists[t] is term t's full combined inverted list in physical
	// order: the exact entry sequence postings.Build would produce.
	Lists [][]postings.Entry
	// DocNames names the delta documents included in this commit.
	DocNames []string
}

// entryLess is postings.Build's within-list order: frequency
// descending, document ascending.
func entryLess(a, b postings.Entry) bool {
	if a.Freq != b.Freq {
		return a.Freq > b.Freq
	}
	return a.Doc < b.Doc
}

// mergeLists merges two frequency-ordered lists, returning the merged
// list and the main-entry prefix counts: prefix[i] is how many of the
// first i merged entries came from main. Main and delta document sets
// are disjoint (delta documents are newly assigned), so the order is
// a strict total order and the merge equals any correct sort of the
// concatenation — including postings.Build's.
func mergeLists(main, delta []postings.Entry) (merged []postings.Entry, prefix []int32) {
	merged = make([]postings.Entry, 0, len(main)+len(delta))
	prefix = make([]int32, 1, len(main)+len(delta)+1)
	i, j := 0, 0
	for i < len(main) || j < len(delta) {
		if j >= len(delta) || (i < len(main) && entryLess(main[i], delta[j])) {
			merged = append(merged, main[i])
			i++
		} else {
			merged = append(merged, delta[j])
			j++
		}
		prefix = append(prefix, int32(i))
	}
	return merged, prefix
}

// Commit derives the combined index artifacts for the current
// main + delta contents. It does not consume the delta: the State
// keeps accumulating, and a later Commit publishes a superset. The
// returned Combined shares nothing mutable with the State.
//
// The metadata construction replays postings.Build exactly:
//
//   - terms in TermID order (main order, then new terms by first
//     appearance), each list in (f_dt desc, d asc) order;
//   - per-term DF, idf_t via postings.IDFValue with the combined N,
//     FMax, page packing into PageSize-entry pages with per-page
//     min/max frequencies;
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
		Meta:        meta,
		DeltaFrozen: make([][]postings.Entry, nTerms),
		Lists:       make([][]postings.Entry, nTerms),
		DocNames:    append([]string(nil), s.docNames...),
	}
	sumSq := meta.DocLen // accumulate sum of squares, sqrt at the end

	// One page descriptor per combined page, counted up front: grown by
	// append, the array would be copied over and over at every commit.
	pages := 0
	for t := 0; t < nTerms; t++ {
		df := len(s.delta[postings.TermID(t)])
		if t < len(s.mainLists) {
			df += len(s.mainLists[t])
		}
		pages += (df + s.pageSize - 1) / s.pageSize
	}
	c.Desc = make([]PageDesc, 0, pages)

	for t := 0; t < nTerms; t++ {
		var main []postings.Entry
		if t < len(s.mainLists) {
			main = s.mainLists[t]
		}
		dl := s.delta[postings.TermID(t)]
		df := len(main) + len(dl)
		if df == 0 {
			return nil, fmt.Errorf("livedex: term %q has an empty inverted list", s.names[t])
		}
		idf := postings.IDFValue(numDocs, df)
		numPages := (df + s.pageSize - 1) / s.pageSize
		tm := postings.TermMeta{
			Name:      s.names[t],
			DF:        df,
			IDF:       idf,
			FirstPage: postings.PageID(len(c.Desc)),
			NumPages:  numPages,
		}

		var list []postings.Entry
		if len(dl) == 0 {
			// Untouched term: the combined list IS the main list, its
			// page packing is the main generation's, and every virtual
			// page passes through. The frozen min/max arrays are shared
			// with the main metadata — both sides are read-only.
			mt := &s.mainIx.Terms[t]
			tm.FMax = mt.FMax
			tm.PageMinFreq = mt.PageMinFreq
			tm.PageMaxFreq = mt.PageMaxFreq
			for i := 0; i < numPages; i++ {
				c.Desc = append(c.Desc, PageDesc{Term: postings.TermID(t), Main: mt.FirstPage + postings.PageID(i)})
			}
			list = main
		} else {
			// Touched term: freeze a sorted snapshot of the delta (a
			// fresh array — epochs published earlier keep theirs), merge,
			// and re-page. The prefix counts pin each virtual page's
			// main-entry run for the Overlay.
			frozen := make([]postings.Entry, len(dl))
			copy(frozen, dl)
			sort.Slice(frozen, func(i, j int) bool { return entryLess(frozen[i], frozen[j]) })
			c.DeltaFrozen[t] = frozen
			merged, prefix := mergeLists(main, frozen)
			tm.FMax = merged[0].Freq
			tm.PageMinFreq = make([]int32, 0, numPages)
			tm.PageMaxFreq = make([]int32, 0, numPages)
			for start := 0; start < df; start += s.pageSize {
				end := start + s.pageSize
				if end > df {
					end = df
				}
				page := merged[start:end]
				min, max := page[0].Freq, page[0].Freq
				for _, e := range page[1:] {
					if e.Freq < min {
						min = e.Freq
					}
					if e.Freq > max {
						max = e.Freq
					}
				}
				tm.PageMinFreq = append(tm.PageMinFreq, min)
				tm.PageMaxFreq = append(tm.PageMaxFreq, max)
				c.Desc = append(c.Desc, PageDesc{
					Term:    postings.TermID(t),
					Merged:  true,
					MainLo:  prefix[start],
					MainHi:  prefix[end],
					DeltaLo: int32(start) - prefix[start],
					DeltaHi: int32(end) - prefix[end],
				})
			}
			list = merged
		}
		c.Lists[t] = list
		for _, e := range list {
			w := float64(e.Freq) * idf
			sumSq[e.Doc] += w * w
		}
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
	s.docNames = nil
	s.deltaEntries = 0
	return nil
}

// Pages materializes the combined page payloads (indexed by combined
// PageID) from a commit's lists — exactly the pages postings.Build
// would emit for the merged corpus. The slices alias c.Lists.
func Pages(c *Combined) [][]postings.Entry {
	pages := make([][]postings.Entry, 0, c.Meta.NumPagesTotal)
	for t := range c.Meta.Terms {
		tm := &c.Meta.Terms[t]
		list := c.Lists[t]
		for start := 0; start < tm.DF; start += c.Meta.PageSize {
			end := start + c.Meta.PageSize
			if end > tm.DF {
				end = tm.DF
			}
			pages = append(pages, list[start:end:end])
		}
	}
	return pages
}
