package postings

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// buildSmall constructs a tiny index used across the package's tests:
//
//	term "common": 7 entries over docs 0..6 with skewed freqs
//	term "rare":   2 entries
//	term "solo":   1 entry
//
// with pageSize 3 so "common" spans 3 pages.
func buildSmall(t *testing.T) (*Index, [][]Entry) {
	t.Helper()
	lists := []TermPostings{
		{Name: "common", Entries: []Entry{
			{Doc: 0, Freq: 9}, {Doc: 1, Freq: 7}, {Doc: 2, Freq: 7},
			{Doc: 3, Freq: 3}, {Doc: 4, Freq: 2}, {Doc: 5, Freq: 1}, {Doc: 6, Freq: 1},
		}},
		{Name: "rare", Entries: []Entry{{Doc: 2, Freq: 4}, {Doc: 5, Freq: 1}}},
		{Name: "solo", Entries: []Entry{{Doc: 6, Freq: 2}}},
	}
	ix, pages, err := Build(lists, 8, 3)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix, pages
}

func TestBuildLayout(t *testing.T) {
	ix, pages := buildSmall(t)
	if ix.NumPagesTotal != 5 { // ceil(7/3)=3 + 1 + 1
		t.Fatalf("NumPagesTotal = %d, want 5", ix.NumPagesTotal)
	}
	common := ix.Terms[ix.Vocab["common"]]
	if common.NumPages != 3 || common.FirstPage != 0 {
		t.Errorf("common layout = {pages %d, first %d}", common.NumPages, common.FirstPage)
	}
	rare := ix.Terms[ix.Vocab["rare"]]
	if rare.NumPages != 1 || rare.FirstPage != 3 {
		t.Errorf("rare layout = {pages %d, first %d}", rare.NumPages, rare.FirstPage)
	}
	// Page mapping arrays.
	if ix.TermOfPage(1) != ix.Vocab["common"] || ix.PageOffset(1) != 1 {
		t.Error("page 1 should be common's second page")
	}
	if ix.TermOfPage(4) != ix.Vocab["solo"] {
		t.Error("page 4 should belong to solo")
	}
	// Page payloads agree with the metadata.
	for p, page := range pages {
		if len(page) == 0 {
			t.Fatalf("page %d empty", p)
		}
		term, off := ix.TermOfPage(PageID(p)), ix.PageOffset(PageID(p))
		if ix.PageMaxFreq(term)[off] != page[0].Freq {
			t.Errorf("page %d PageMaxFreq mismatch", p)
		}
		if ix.PageMinFreq(term)[off] != page[len(page)-1].Freq {
			t.Errorf("page %d PageMinFreq mismatch", p)
		}
	}
}

func TestBuildFrequencySorted(t *testing.T) {
	ix, pages := buildSmall(t)
	for tid := range ix.Terms {
		entries := ListPostings(pages, ix, TermID(tid))
		for i := 1; i < len(entries); i++ {
			prev, cur := entries[i-1], entries[i]
			if cur.Freq > prev.Freq {
				t.Fatalf("term %d not frequency-sorted at %d", tid, i)
			}
			if cur.Freq == prev.Freq && cur.Doc < prev.Doc {
				t.Fatalf("term %d ties not doc-sorted at %d", tid, i)
			}
		}
	}
}

func TestBuildIDFAndWd(t *testing.T) {
	ix, _ := buildSmall(t)
	common := ix.Terms[ix.Vocab["common"]]
	wantIDF := math.Log2(8.0 / 7.0)
	if math.Abs(common.IDF-wantIDF) > 1e-12 {
		t.Errorf("common idf = %g, want %g", common.IDF, wantIDF)
	}
	// W_d for doc 2: common f=7 and rare f=4.
	idfRare := math.Log2(8.0 / 2.0)
	want := math.Sqrt(math.Pow(7*wantIDF, 2) + math.Pow(4*idfRare, 2))
	if math.Abs(ix.DocLen[2]-want) > 1e-9 {
		t.Errorf("W_2 = %g, want %g", ix.DocLen[2], want)
	}
	// Doc 7 appears in no list.
	if ix.DocLen[7] != 0 {
		t.Errorf("W_7 = %g, want 0", ix.DocLen[7])
	}
}

func TestBuildFMax(t *testing.T) {
	ix, _ := buildSmall(t)
	if got := ix.Terms[ix.Vocab["common"]].FMax; got != 9 {
		t.Errorf("common FMax = %d, want 9", got)
	}
	if got := ix.Terms[ix.Vocab["solo"]].FMax; got != 2 {
		t.Errorf("solo FMax = %d, want 2", got)
	}
}

func TestPagesToProcessExact(t *testing.T) {
	ix, _ := buildSmall(t)
	common := ix.Vocab["common"]
	// common pages: [9 7 7] [3 2 1] [1]; page minima: 7, 1, 1.
	cases := []struct {
		fadd float64
		want int
	}{
		{0, 3},   // nothing filtered: stop at first f<=0 — none, all 3 pages
		{0.5, 3}, // f<=0.5 never true
		{1, 2},   // first f<=1 is on page 2 (doc 5)
		{2, 2},   // first f<=2 on page 2
		{3, 2},   //
		{6.9, 2}, // page minima 7 > 6.9 on page 1
		{7, 1},   // f<=7 already on page 1 (doc 1)
		{9, 1},   // first entry f=9 <= 9: page 1 still touched
		{100, 1}, // always at least the first page once scanning starts
	}
	for _, c := range cases {
		if got := ix.PagesToProcessExact(common, c.fadd); got != c.want {
			t.Errorf("PagesToProcessExact(fadd=%g) = %d, want %d", c.fadd, got, c.want)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	valid := []TermPostings{{Name: "x", Entries: []Entry{{Doc: 0, Freq: 1}}}}
	if _, _, err := Build(valid, 1, 0); err == nil {
		t.Error("page size 0 should fail")
	}
	if _, _, err := Build(valid, 0, 4); err == nil {
		t.Error("zero docs should fail")
	}
	empty := []TermPostings{{Name: "x"}}
	if _, _, err := Build(empty, 1, 4); err == nil {
		t.Error("empty list should fail")
	}
	dup := []TermPostings{
		{Name: "x", Entries: []Entry{{Doc: 0, Freq: 1}}},
		{Name: "x", Entries: []Entry{{Doc: 0, Freq: 1}}},
	}
	if _, _, err := Build(dup, 1, 4); err == nil {
		t.Error("duplicate term should fail")
	}
	oob := []TermPostings{{Name: "x", Entries: []Entry{{Doc: 5, Freq: 1}}}}
	if _, _, err := Build(oob, 3, 4); err == nil {
		t.Error("out-of-range doc should fail")
	}
	zeroFreq := []TermPostings{{Name: "x", Entries: []Entry{{Doc: 0, Freq: 0}}}}
	if _, _, err := Build(zeroFreq, 1, 4); err == nil {
		t.Error("zero frequency should fail")
	}
	dupEntry := []TermPostings{{Name: "x", Entries: []Entry{{Doc: 0, Freq: 2}, {Doc: 0, Freq: 2}}}}
	if _, _, err := Build(dupEntry, 1, 4); err == nil {
		t.Error("duplicate (doc,freq) entry should fail")
	}
}

// randomLists generates a random valid postings set for property tests.
func randomLists(r *rand.Rand, numDocs int) []TermPostings {
	numTerms := 1 + r.Intn(8)
	lists := make([]TermPostings, numTerms)
	for t := 0; t < numTerms; t++ {
		df := 1 + r.Intn(numDocs)
		perm := r.Perm(numDocs)[:df]
		entries := make([]Entry, df)
		for i, d := range perm {
			entries[i] = Entry{Doc: DocID(d), Freq: int32(1 + r.Intn(30))}
		}
		lists[t] = TermPostings{Name: string(rune('a' + t)), Entries: entries}
	}
	return lists
}

// TestBuildProperties checks structural invariants over random inputs:
// page counts, frequency ordering, entry conservation, and the
// conversion-table/exact-scan agreement.
func TestBuildProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		numDocs := 2 + r.Intn(40)
		pageSize := 1 + r.Intn(7)
		lists := randomLists(r, numDocs)
		ix, pages, err := Build(lists, numDocs, pageSize)
		if err != nil {
			t.Fatalf("iter %d: Build: %v", iter, err)
		}
		totalEntries := 0
		for _, l := range lists {
			totalEntries += len(l.Entries)
		}
		gotEntries := 0
		for _, p := range pages {
			if len(p) == 0 || len(p) > pageSize {
				t.Fatalf("iter %d: page size %d outside (0,%d]", iter, len(p), pageSize)
			}
			gotEntries += len(p)
		}
		if gotEntries != totalEntries {
			t.Fatalf("iter %d: %d entries paged, want %d", iter, gotEntries, totalEntries)
		}
		for tid := range ix.Terms {
			tm := &ix.Terms[tid]
			wantPages := (tm.DF + pageSize - 1) / pageSize
			if tm.NumPages != wantPages {
				t.Fatalf("iter %d: term %d pages %d, want %d", iter, tid, tm.NumPages, wantPages)
			}
			// Conversion agreement: exact page count equals a naive
			// scan simulation at integer and fractional thresholds.
			for _, fadd := range []float64{0, 0.5, 1, 2, 3.7, 5, 10, 29, 1000} {
				want := naiveScanPages(ListPostings(pages, ix, TermID(tid)), pageSize, fadd)
				if got := ix.PagesToProcessExact(TermID(tid), fadd); got != want {
					t.Fatalf("iter %d term %d fadd %g: exact %d, naive %d", iter, tid, fadd, got, want)
				}
			}
		}
	}
}

// naiveScanPages simulates the evaluator's scan loop directly.
func naiveScanPages(entries []Entry, pageSize int, fadd float64) int {
	for i, e := range entries {
		if float64(e.Freq) <= fadd {
			return i/pageSize + 1
		}
	}
	return (len(entries) + pageSize - 1) / pageSize
}

// TestConversionTableMatchesExact: for every term and every integer
// threshold in range, the table must agree with the exact computation;
// beyond the range it must fall back to the exact value too.
func TestConversionTableMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		numDocs := 2 + r.Intn(50)
		lists := randomLists(r, numDocs)
		ix, _, err := Build(lists, numDocs, 1+r.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		ct := NewConversionTable(ix, 10)
		for tid := range ix.Terms {
			for _, fadd := range []float64{0, 0.2, 1, 1.9, 2, 5, 9.99, 10, 11, 28.5, 40} {
				want := ix.PagesToProcessExact(TermID(tid), fadd)
				if ix.Terms[tid].NumPages == 1 {
					want = 1
				}
				if got := ct.Pages(TermID(tid), fadd); got != want {
					t.Fatalf("iter %d term %d fadd %g: table %d, exact %d", iter, tid, fadd, got, want)
				}
			}
		}
	}
}

func TestConversionTableSizeAndCounters(t *testing.T) {
	ix, _ := buildSmall(t)
	ct := NewConversionTable(ix, 10)
	// Only "common" is multi-page: 11 thresholds x 2 bytes.
	if got := ct.SizeBytes(); got != 22 {
		t.Errorf("SizeBytes = %d, want 22", got)
	}
}

// TestConversionTableLongList: a list longer than an int16 can count
// gets no row and is answered exactly, never clamped to 32 767 pages;
// the other multi-page lists keep theirs.
func TestConversionTableLongList(t *testing.T) {
	const n = 33_000
	long := make([]Entry, n)
	for d := range long {
		long[d] = Entry{Doc: DocID(d), Freq: 1}
	}
	long[0].Freq = 3
	lists := []TermPostings{
		{Name: "long", Entries: long},
		{Name: "pair", Entries: []Entry{{Doc: 0, Freq: 2}, {Doc: 1, Freq: 1}}},
	}
	ix, _, err := Build(lists, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ct := NewConversionTable(ix, DefaultMaxKey)
	for _, tc := range []struct {
		term string
		fadd float64
		want int
	}{{"long", 0, n}, {"long", 1, 2}, {"long", 3, 1}, {"pair", 1, 2}, {"pair", 2, 1}} {
		if got := ct.Pages(ix.Vocab[tc.term], tc.fadd); got != tc.want {
			t.Errorf("Pages(%s, %g) = %d, want %d", tc.term, tc.fadd, got, tc.want)
		}
	}
	if got, want := ct.SizeBytes(), 2*(DefaultMaxKey+1); got != want {
		t.Errorf("SizeBytes = %d, want %d (one row, for pair)", got, want)
	}
}

func TestConversionTableNegativeThreshold(t *testing.T) {
	ix, _ := buildSmall(t)
	ct := NewConversionTable(ix, 10)
	common := ix.Vocab["common"]
	if got := ct.Pages(common, -3); got != ix.Terms[common].NumPages {
		t.Errorf("negative fadd should clamp to 0 (full scan): got %d", got)
	}
}

// TestQuickPageBounds: quick-check that the exact page count is always
// within [1, NumPages] and monotonically non-increasing in fadd.
func TestQuickPageBounds(t *testing.T) {
	ix, _ := buildSmall(t)
	common := ix.Vocab["common"]
	prop := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		lo, hi := math.Min(a, b), math.Max(a, b)
		pLo := ix.PagesToProcessExact(common, lo)
		pHi := ix.PagesToProcessExact(common, hi)
		return pLo >= pHi && pHi >= 1 && pLo <= ix.Terms[common].NumPages
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestRebuildPageMapsRejectsRisingMaxFreq: metadata in which a page's
// maximum frequency exceeds its predecessor's cannot come from a
// frequency-sorted list, and RAP's static within-term eviction order
// rests on it never happening — a loader handing such a block to
// RebuildPageMaps must get an error.
func TestRebuildPageMapsRejectsRisingMaxFreq(t *testing.T) {
	ix, _ := buildSmall(t)
	common := ix.PageMaxFreq(ix.Vocab["common"])
	for i := 1; i < len(common); i++ {
		if common[i] > common[i-1] {
			t.Fatalf("Build produced a rising maximum at page %d: %v", i, common)
		}
	}
	if err := ix.RebuildPageMaps(); err != nil {
		t.Fatalf("untouched metadata rejected: %v", err)
	}
	// A plateau is legal, a rise is not.
	copy(common, []int32{9, 9, 2})
	if err := ix.RebuildPageMaps(); err != nil {
		t.Fatalf("plateau rejected: %v", err)
	}
	copy(common, []int32{9, 3, 4})
	if err := ix.RebuildPageMaps(); err == nil {
		t.Fatal("rising page maximum accepted")
	}
}

// TestPaginate: for random frequency-sorted lists and page sizes, the
// pages concatenate back to the list, none exceeds the page size and
// only the last falls short of it, each is capacity-capped, and the
// bounds AppendList records are each page's extremes. Without an index
// the cut is the same.
func TestPaginate(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 200; trial++ {
		list := make([]Entry, rng.Intn(40))
		for i := range list {
			list[i] = Entry{Doc: DocID(rng.Intn(1000)), Freq: int32(1 + rng.Intn(6))}
		}
		sort.Slice(list, func(i, j int) bool { return Before(list[i], list[j]) })
		pageSize := 1 + rng.Intn(9)

		ix := &Index{PageSize: pageSize}
		var tm TermMeta
		var pages [][]Entry
		var joined []Entry
		ix.AppendList(&tm, list, func(start int, page []Entry) {
			if start != len(joined) {
				t.Fatalf("page %d starts at %d, want %d", len(pages), start, len(joined))
			}
			pages = append(pages, page)
			joined = append(joined, page...)
		})
		n := tm.NumPages
		if n != len(pages) || tm.FirstPage != 0 || len(ix.pageMin) != n || len(ix.pageMax) != n {
			t.Fatalf("emitted %d pages, recorded %d from %d (%d/%d bounds)",
				len(pages), n, tm.FirstPage, len(ix.pageMin), len(ix.pageMax))
		}
		if !slices.Equal(joined, list) {
			t.Fatalf("pages concatenate to %v, want %v", joined, list)
		}
		for i, page := range pages {
			if len(page) == 0 || len(page) > pageSize || len(page) < pageSize && i != n-1 {
				t.Fatalf("page %d of %d holds %d entries at page size %d", i, n, len(page), pageSize)
			}
			if cap(page) != len(page) {
				t.Fatalf("page %d has cap %d, len %d", i, cap(page), len(page))
			}
			lo, hi := page[0].Freq, page[0].Freq
			for _, e := range page {
				lo, hi = min(lo, e.Freq), max(hi, e.Freq)
			}
			if ix.pageMin[i] != lo || ix.pageMax[i] != hi {
				t.Fatalf("page %d bounds (%d, %d), extremes (%d, %d)", i, ix.pageMin[i], ix.pageMax[i], lo, hi)
			}
		}
		if got := Paginate(list, pageSize, nil); got != n {
			t.Fatalf("without an index: %d pages, want %d", got, n)
		}
	}
}
