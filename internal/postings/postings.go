// Package postings implements the physical organization of the
// inverted index used by the paper: one frequency-sorted inverted list
// per term, packed into fixed-capacity logical pages (PageSize entries
// per page, default 404 as in §4.2), with the per-term idf_t and
// f_max arrays, the per-page frequency bounds and the f_add -> pages
// "conversion table" (§3.2.2) maintained in memory.
package postings

import (
	"fmt"
	"math"
	"sort"
)

// DocID identifies a document in the collection.
type DocID int32

// TermID identifies a term (an inverted list) in the index.
type TermID int32

// PageID identifies a logical disk page. Pages are numbered
// sequentially across all inverted lists; each list occupies a
// contiguous run of pages (each inverted list is a separate "file" in
// the paper's setup).
type PageID int32

// Entry is a single (d, f_dt) posting: document d contains the term
// f_dt times.
type Entry struct {
	Doc  DocID
	Freq int32
}

// DefaultPageSize is the paper's page capacity: a page that is one
// tenth of a 4 KB page, with compressed 1-byte entries and reasonable
// overhead, holds 404 (d, f_dt) entries (§4.2).
const DefaultPageSize = 404

// TermMeta holds the memory-resident per-term metadata: the
// information the paper keeps in main memory for every term (idf_t,
// f_max) plus the physical layout of its inverted list. It is 48 bytes
// and holds no slice: the per-page statistics of every list sit in the
// Index's flat page arrays (PageMinFreq, PageMaxFreq), one entry per
// page, so a term costs the same whatever its length.
type TermMeta struct {
	// Name is the (stemmed) term string.
	Name string
	// DF is f_t, the number of documents the term appears in (also
	// the number of entries in the inverted list).
	DF int
	// IDF is idf_t = log2(N / f_t).
	IDF float64
	// FMax is the maximum f_dt of any document for this term; stored
	// with the idf values so the evaluator can skip a list entirely
	// when f_max <= f_add (Figure 1, step 4b).
	FMax int32
	// FirstPage is the PageID of the first page of the list.
	FirstPage PageID
	// NumPages is the length of the list in pages.
	NumPages int
}

// PageEntries returns how many entries page i of the term's list holds
// at the given page size: a full page, or what is left of DF on the
// last one. The file store checks every decoded page against it, so
// metadata that does not add up yields 0, never a negative.
func (tm *TermMeta) PageEntries(i, pageSize int) int {
	n := tm.DF - i*pageSize
	if n > pageSize {
		n = pageSize
	}
	if n < 0 {
		n = 0
	}
	return n
}

// Index is the memory-resident part of the inverted index: everything
// except the inverted-list pages themselves, which live in the paged
// store and are accessed through the buffer manager.
type Index struct {
	// NumDocs is N, the number of documents in the collection.
	NumDocs int
	// PageSize is the page capacity in entries.
	PageSize int
	// Terms holds per-term metadata, indexed by TermID.
	Terms []TermMeta
	// Vocab maps term strings to TermIDs.
	Vocab map[string]TermID
	// DocLen[d] is W_d, the document vector length (Equation 2).
	DocLen []float64
	// NumPagesTotal is the total number of inverted-list pages.
	NumPagesTotal int

	// pageTerm[p] is the term whose list contains page p; the page's
	// offset in that list follows from the list's FirstPage.
	pageTerm []TermID
	// pageMin[p] is the smallest f_dt on page p (its last entry, since
	// lists are frequency-sorted); pageMax[p] the largest (its first).
	// A term's pages are contiguous, so its bounds are one sub-slice of
	// each (PageMinFreq, PageMaxFreq).
	pageMin []int32
	pageMax []int32
}

// TermOfPage returns the term whose inverted list contains page p.
func (ix *Index) TermOfPage(p PageID) TermID { return ix.pageTerm[p] }

// PageOffset returns the position (0-based) of page p within its
// term's inverted list. A list's pages are contiguous, so it is p less
// the list's first page; no per-page array holds it.
func (ix *Index) PageOffset(p PageID) int32 {
	return int32(p - ix.Terms[ix.pageTerm[p]].FirstPage)
}

// PageWStar returns w*_{d,t}, the highest document weight for any
// entry on page p: the page's largest f_dt times idf_t, the one number
// per page the RAP policy ranks by (§3.3). It is computed from the two
// memory-resident factors on every call rather than stored, so a page
// costs no third array; the product is the same float64 a stored copy
// would hold.
func (ix *Index) PageWStar(p PageID) float64 {
	return float64(ix.pageMax[p]) * ix.Terms[ix.pageTerm[p]].IDF
}

// PageMinFreq returns the smallest f_dt of each page of term t's list,
// in list order: page i's minimum determines whether a scan with a
// given addition threshold goes on past it. The slice is a view of the
// index's own page array: read it, never write it.
func (ix *Index) PageMinFreq(t TermID) []int32 {
	tm := &ix.Terms[t]
	return ix.pageMin[tm.FirstPage : int(tm.FirstPage)+tm.NumPages]
}

// PageMaxFreq returns the largest f_dt of each page of term t's list,
// in list order; page i's maximum times idf_t is its w*_{d,t}
// (PageWStar). The slice is a view of the index's own page array:
// read it, never write it.
func (ix *Index) PageMaxFreq(t TermID) []int32 {
	tm := &ix.Terms[t]
	return ix.pageMax[tm.FirstPage : int(tm.FirstPage)+tm.NumPages]
}

// LookupTerm returns the TermID for a term string.
func (ix *Index) LookupTerm(name string) (TermID, bool) {
	t, ok := ix.Vocab[name]
	return t, ok
}

// PageOf returns the PageID of page i of term t's inverted list.
func (ix *Index) PageOf(t TermID, i int) PageID {
	return ix.Terms[t].FirstPage + PageID(i)
}

// IDF returns idf_t for term t.
func (ix *Index) IDF(t TermID) float64 { return ix.Terms[t].IDF }

// IDFValue computes idf_t = log2(N / f_t) with the degenerate inputs
// guarded, and is the single authority every IDF in the system comes
// from (Build, the indexfile loaders and the live index all call it):
//
//   - f_t <= 0 — a term absent from the collection, which neither
//     Build nor the page-file loader admits — yields 0, not +Inf: the
//     term carries no information and must contribute nothing, rather
//     than poison query weights and score bounds with infinities
//     (0 * Inf = NaN).
//   - f_t >= N — a term in every document — yields 0 as well:
//     log2(N/N) is exactly 0 for f_t == N (such a term has no
//     discriminating power and contributes nothing to any score, by
//     design, not by accident), and f_t > N (corrupt or foreign
//     metadata) is clamped to 0 instead of going negative, which would
//     turn contributions into penalties and break the frequency-sorted
//     score bounds.
//
// Between the edges this is exactly Equation 4.
func IDFValue(numDocs, df int) float64 {
	if df <= 0 || df >= numDocs {
		return 0
	}
	return math.Log2(float64(numDocs) / float64(df))
}

// PagesToProcessExact returns p_t: the number of pages of term t's
// list that a threshold scan with addition threshold fadd processes.
// The scan stops at the first entry with f_dt <= f_add; that entry's
// page is still touched. Because lists are frequency-sorted, this is
// the first page whose minimum frequency is <= f_add.
func (ix *Index) PagesToProcessExact(t TermID, fadd float64) int {
	mins := ix.PageMinFreq(t)
	for i, min := range mins {
		if float64(min) <= fadd {
			return i + 1
		}
	}
	return len(mins)
}

// ListPostings materializes term t's full inverted list from the page
// payloads (used by workload construction and tests; query evaluation
// always goes through the buffer manager instead).
func ListPostings(pages [][]Entry, ix *Index, t TermID) []Entry {
	tm := &ix.Terms[t]
	out := make([]Entry, 0, tm.DF)
	for i := 0; i < tm.NumPages; i++ {
		out = append(out, pages[ix.PageOf(t, i)]...)
	}
	return out
}

// AppendList lays list out, through Paginate at ix.PageSize, as the
// pages of term tm, the next term of ix: tm.FirstPage becomes the first
// page ix has not laid out yet and tm.NumPages the page count, and each
// page's smallest and largest f_dt join ix's page arrays. emit, when
// non-nil, receives every page in list order with its offset in list.
// Terms are laid out in TermID order; RebuildPageMaps completes the
// index once all are.
func (ix *Index) AppendList(tm *TermMeta, list []Entry, emit func(start int, page []Entry)) {
	tm.FirstPage = PageID(len(ix.pageMin))
	tm.NumPages = Paginate(list, ix.PageSize, func(start int, page []Entry) {
		lo, hi := page[0].Freq, page[0].Freq
		for _, e := range page[1:] {
			if e.Freq < lo {
				lo = e.Freq
			}
			if e.Freq > hi {
				hi = e.Freq
			}
		}
		ix.pageMin = append(ix.pageMin, lo)
		ix.pageMax = append(ix.pageMax, hi)
		if emit != nil {
			emit(start, page)
		}
	})
}

// AppendBounds lays out term tm, the next term of ix, on len(mins)
// pages whose smallest and largest f_dt are mins[i] and maxs[i], as
// AppendList does from a list. It serves the layouts that already hold
// the bounds: a loader reading them from a file, and a live commit
// reusing an untouched term's from the main generation. mins and maxs
// are copied.
func (ix *Index) AppendBounds(tm *TermMeta, mins, maxs []int32) {
	tm.FirstPage = PageID(len(ix.pageMin))
	tm.NumPages = len(mins)
	ix.pageMin = append(ix.pageMin, mins...)
	ix.pageMax = append(ix.pageMax, maxs...)
}

// RebuildPageMaps checks the layout AppendList and AppendBounds
// recorded against the term metadata, sets NumPagesTotal and builds the
// page → term map. Build calls it implicitly; it is
// exported for the index constructors outside this package (the page
// file loader, a live commit, a shard split).
//
// It rejects metadata in which a page's maximum frequency exceeds that
// of the page before it in the same list. Frequency-sorted lists cannot
// produce that, and the RAP replacement policy relies on it: w* falling
// along a list is what makes its eviction order within a term
// independent of the query (buffer.RAP), so a corrupt or hand-built
// metadata block must fail here rather than mis-evict silently.
func (ix *Index) RebuildPageMaps() error {
	total := 0
	for t := range ix.Terms {
		tm := &ix.Terms[t]
		if int(tm.FirstPage) != total {
			return fmt.Errorf("postings: term %q starts at page %d, expected %d", tm.Name, tm.FirstPage, total)
		}
		total += tm.NumPages
		if total > len(ix.pageMin) || total > len(ix.pageMax) {
			return fmt.Errorf("postings: term %q ends at page %d, but only %d/%d page bounds are laid out",
				tm.Name, total, len(ix.pageMin), len(ix.pageMax))
		}
		maxs := ix.PageMaxFreq(TermID(t))
		for i := 1; i < len(maxs); i++ {
			if maxs[i] > maxs[i-1] {
				return fmt.Errorf("postings: term %q is not frequency-sorted: page %d has maximum frequency %d, page %d only %d",
					tm.Name, i, maxs[i], i-1, maxs[i-1])
			}
		}
	}
	if total != len(ix.pageMin) || total != len(ix.pageMax) {
		return fmt.Errorf("postings: %d pages laid out for terms of %d pages", len(ix.pageMin), total)
	}
	ix.NumPagesTotal = total
	// The bounds grew by appending; keep exactly one entry per page.
	if cap(ix.pageMin) > total {
		ix.pageMin = append(make([]int32, 0, total), ix.pageMin...)
	}
	if cap(ix.pageMax) > total {
		ix.pageMax = append(make([]int32, 0, total), ix.pageMax...)
	}
	ix.pageTerm = make([]TermID, total)
	for t := range ix.Terms {
		tm := &ix.Terms[t]
		for i := 0; i < tm.NumPages; i++ {
			ix.pageTerm[tm.FirstPage+PageID(i)] = TermID(t)
		}
	}
	return nil
}

// TermPostings is one raw inverted list prior to paging: a term name
// and its (d, f_dt) entries in any order.
type TermPostings struct {
	Name    string
	Entries []Entry
}

// Build constructs the Index and the page payloads from raw postings.
// Entries of each list are sorted by (f_dt descending, d ascending) —
// the frequency ordering of Wong/Lee and Persin (§2.3) — and packed
// into pages of pageSize entries. numDocs is N. The returned pages
// slice is indexed by PageID and is what the simulated disk stores.
//
// Terms are assigned TermIDs in the (deterministic) order given.
// Terms with no entries are rejected: every term in the index must
// have f_t >= 1 for idf_t to be defined.
func Build(lists []TermPostings, numDocs, pageSize int) (*Index, [][]Entry, error) {
	if pageSize < 1 {
		return nil, nil, fmt.Errorf("postings: page size %d < 1", pageSize)
	}
	if numDocs < 1 {
		return nil, nil, fmt.Errorf("postings: collection has %d documents", numDocs)
	}
	ix := &Index{
		NumDocs:  numDocs,
		PageSize: pageSize,
		Terms:    make([]TermMeta, 0, len(lists)),
		Vocab:    make(map[string]TermID, len(lists)),
		DocLen:   make([]float64, numDocs),
	}
	var pages [][]Entry
	var sumSq = ix.DocLen // reused: accumulate sum of squares, sqrt at end

	for _, lp := range lists {
		if len(lp.Entries) == 0 {
			return nil, nil, fmt.Errorf("postings: term %q has an empty inverted list", lp.Name)
		}
		if _, dup := ix.Vocab[lp.Name]; dup {
			return nil, nil, fmt.Errorf("postings: duplicate term %q", lp.Name)
		}
		entries := make([]Entry, len(lp.Entries))
		copy(entries, lp.Entries)
		sort.Slice(entries, func(i, j int) bool { return Before(entries[i], entries[j]) })
		for i := 1; i < len(entries); i++ {
			if entries[i].Doc == entries[i-1].Doc && entries[i].Freq == entries[i-1].Freq {
				return nil, nil, fmt.Errorf("postings: term %q has duplicate entry for document %d", lp.Name, entries[i].Doc)
			}
		}
		df := len(entries)
		idf := IDFValue(numDocs, df)
		tm := TermMeta{
			Name: lp.Name,
			DF:   df,
			IDF:  idf,
			FMax: entries[0].Freq,
		}
		ix.AppendList(&tm, entries, func(_ int, page []Entry) { pages = append(pages, page) })
		for _, e := range entries {
			if int(e.Doc) < 0 || int(e.Doc) >= numDocs {
				return nil, nil, fmt.Errorf("postings: term %q references document %d outside [0,%d)", lp.Name, e.Doc, numDocs)
			}
			if e.Freq < 1 {
				return nil, nil, fmt.Errorf("postings: term %q has non-positive frequency %d", lp.Name, e.Freq)
			}
			w := float64(e.Freq) * idf
			sumSq[e.Doc] += w * w
		}
		ix.Vocab[lp.Name] = TermID(len(ix.Terms))
		ix.Terms = append(ix.Terms, tm)
	}

	for d := range sumSq {
		ix.DocLen[d] = math.Sqrt(sumSq[d])
	}
	if err := ix.RebuildPageMaps(); err != nil {
		return nil, nil, err
	}
	return ix, pages, nil
}

// Before reports whether a precedes b in a frequency-sorted list:
// f_dt descending, then d ascending. It is Build's within-list order,
// the order a live commit merges by and the order a page must be in to
// encode.
func Before(a, b Entry) bool {
	if a.Freq != b.Freq {
		return a.Freq > b.Freq
	}
	return a.Doc < b.Doc
}

// Paginate cuts list, kept in its order, into pages of pageSize
// entries, the last holding what is left, and returns how many. It is
// the one page-layout rule: Build, a live commit and a shard split all
// lay their lists out through it (Index.AppendList records the layout
// it cuts). Every page is capacity-capped (cap == len), so an append to
// one cannot write into the next. emit, when non-nil, receives every
// page in list order with its offset in list.
func Paginate(list []Entry, pageSize int, emit func(start int, page []Entry)) int {
	n := (len(list) + pageSize - 1) / pageSize
	if emit != nil {
		for start := 0; start < len(list); start += pageSize {
			end := min(start+pageSize, len(list))
			emit(start, list[start:end:end])
		}
	}
	return n
}
