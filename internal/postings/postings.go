// Package postings implements the physical organization of the
// inverted index used by the paper: one frequency-sorted inverted list
// per term, packed into fixed-capacity logical pages (PageSize entries
// per page, default 404 as in §4.2), with the per-term idf_t and
// f_max arrays and the f_add -> pages "conversion table" (§3.2.2)
// maintained in memory.
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
// f_max) plus the physical layout of its inverted list.
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
	// PageMinFreq[i] is the smallest f_dt on page i (the last entry,
	// since lists are frequency-sorted). It determines exactly how
	// many pages a scan with a given addition threshold processes.
	PageMinFreq []int32
	// PageMaxFreq[i] is the largest f_dt on page i (the first entry);
	// PageMaxFreq[i] * IDF is the page's w*_{d,t} used by the RAP
	// replacement policy.
	PageMaxFreq []int32
}

// PageEntries returns how many entries page i of the term's list holds
// at the given page size: a full page, or what is left of DF on the
// last one. For a shard partition's local list, whose DF is the
// collection's, it is an upper bound. Loaders size decode buffers with
// it, so metadata that does not add up yields 0, never a negative.
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

	// pageTerm[p] is the term whose list contains page p.
	pageTerm []TermID
	// pageOffset[p] is the page's position within its list (0-based).
	pageOffset []int32
	// pageWStar[p] is w*_{d,t} = PageMaxFreq * idf_t for page p.
	pageWStar []float64
	// docSorted marks an index from BuildDocSorted: its lists are in
	// document order, so RebuildPageMaps cannot ask the per-page maximum
	// frequencies to fall along a list.
	docSorted bool
}

// TermOfPage returns the term whose inverted list contains page p.
func (ix *Index) TermOfPage(p PageID) TermID { return ix.pageTerm[p] }

// PageOffset returns the position (0-based) of page p within its
// term's inverted list.
func (ix *Index) PageOffset(p PageID) int32 { return ix.pageOffset[p] }

// PageWStar returns w*_{d,t}, the highest document weight for any
// entry on page p, precomputed at index-build time as the paper
// prescribes for the RAP policy (§3.3).
func (ix *Index) PageWStar(p PageID) float64 { return ix.pageWStar[p] }

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
// from (Build, the indexfile loaders, and rank.IDF all delegate here):
//
//   - f_t <= 0 — a term absent from the collection, representable in
//     loaded shard metadata — yields 0, not +Inf: the term carries no
//     information and must contribute nothing, rather than poison
//     query weights and score bounds with infinities (0 * Inf = NaN).
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
	tm := &ix.Terms[t]
	for i, min := range tm.PageMinFreq {
		if float64(min) <= fadd {
			return i + 1
		}
	}
	return tm.NumPages
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

// RebuildPageMaps recomputes the derived page-level arrays (page →
// term, page → offset, page → w*) and NumPagesTotal from the term
// metadata. Build calls it implicitly; it is exported for index
// loaders that reconstruct an Index from persisted metadata.
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
		if len(tm.PageMinFreq) != tm.NumPages || len(tm.PageMaxFreq) != tm.NumPages {
			return fmt.Errorf("postings: term %q has %d pages but %d/%d min/max entries",
				tm.Name, tm.NumPages, len(tm.PageMinFreq), len(tm.PageMaxFreq))
		}
		for i := 1; i < tm.NumPages && !ix.docSorted; i++ {
			if tm.PageMaxFreq[i] > tm.PageMaxFreq[i-1] {
				return fmt.Errorf("postings: term %q is not frequency-sorted: page %d has maximum frequency %d, page %d only %d",
					tm.Name, i, tm.PageMaxFreq[i], i-1, tm.PageMaxFreq[i-1])
			}
		}
		total += tm.NumPages
	}
	ix.NumPagesTotal = total
	ix.pageTerm = make([]TermID, total)
	ix.pageOffset = make([]int32, total)
	ix.pageWStar = make([]float64, total)
	for t := range ix.Terms {
		tm := &ix.Terms[t]
		for i := 0; i < tm.NumPages; i++ {
			p := tm.FirstPage + PageID(i)
			ix.pageTerm[p] = TermID(t)
			ix.pageOffset[p] = int32(i)
			ix.pageWStar[p] = float64(tm.PageMaxFreq[i]) * tm.IDF
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

// BuildDocSorted constructs an Index whose inverted lists are ordered
// by document identifier — the traditional organization of [ZMSD92,
// MZ94, Bro95] that the paper contrasts with frequency sorting
// (§2.3). Page min/max frequency metadata is still recorded (RAP's w*
// remains well defined, but w* no longer falls along a list, so RAP's
// tail-first order within a term is not its value order here; the
// doc-sorted baselines run LRU), and PagesToProcessExact and the
// conversion table are meaningless over this layout: document-sorted
// evaluation cannot terminate scans early on frequency, which is
// exactly the deficiency footnote 14 points at.
func BuildDocSorted(lists []TermPostings, numDocs, pageSize int) (*Index, [][]Entry, error) {
	return build(lists, numDocs, pageSize, true, func(entries []Entry) {
		sort.Slice(entries, func(i, j int) bool { return entries[i].Doc < entries[j].Doc })
	})
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
	return build(lists, numDocs, pageSize, false, func(entries []Entry) {
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].Freq != entries[j].Freq {
				return entries[i].Freq > entries[j].Freq
			}
			return entries[i].Doc < entries[j].Doc
		})
	})
}

// build is the shared construction path; sortEntries establishes the
// physical within-list order.
func build(lists []TermPostings, numDocs, pageSize int, docSorted bool, sortEntries func([]Entry)) (*Index, [][]Entry, error) {
	if pageSize < 1 {
		return nil, nil, fmt.Errorf("postings: page size %d < 1", pageSize)
	}
	if numDocs < 1 {
		return nil, nil, fmt.Errorf("postings: collection has %d documents", numDocs)
	}
	ix := &Index{
		NumDocs:   numDocs,
		PageSize:  pageSize,
		Terms:     make([]TermMeta, 0, len(lists)),
		Vocab:     make(map[string]TermID, len(lists)),
		DocLen:    make([]float64, numDocs),
		docSorted: docSorted,
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
		sortEntries(entries)
		for i := 1; i < len(entries); i++ {
			if entries[i].Doc == entries[i-1].Doc && entries[i].Freq == entries[i-1].Freq {
				return nil, nil, fmt.Errorf("postings: term %q has duplicate entry for document %d", lp.Name, entries[i].Doc)
			}
		}
		df := len(entries)
		idf := IDFValue(numDocs, df)
		numPages := (df + pageSize - 1) / pageSize
		tm := TermMeta{
			Name:        lp.Name,
			DF:          df,
			IDF:         idf,
			FMax:        entries[0].Freq,
			FirstPage:   PageID(len(pages)),
			NumPages:    numPages,
			PageMinFreq: make([]int32, 0, numPages),
			PageMaxFreq: make([]int32, 0, numPages),
		}
		for start := 0; start < df; start += pageSize {
			end := start + pageSize
			if end > df {
				end = df
			}
			page := entries[start:end:end]
			pages = append(pages, page)
			min, max := page[0].Freq, page[0].Freq
			for _, e := range page[1:] {
				if e.Freq < min {
					min = e.Freq
				}
				if e.Freq > max {
					max = e.Freq
				}
			}
			tm.PageMaxFreq = append(tm.PageMaxFreq, max)
			tm.PageMinFreq = append(tm.PageMinFreq, min)
		}
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
