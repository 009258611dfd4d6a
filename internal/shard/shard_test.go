package shard_test

import (
	"reflect"
	"slices"
	"testing"

	"bufir/internal/corpus"
	"bufir/internal/postings"
	"bufir/internal/shard"
)

func buildIndex(t *testing.T) (*corpus.Collection, *postings.Index, [][]postings.Entry) {
	t.Helper()
	col, err := corpus.Generate(corpus.TinyConfig(1998))
	if err != nil {
		t.Fatal(err)
	}
	ix, pages, err := postings.Build(col.Lists, col.NumDocs, col.Cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return col, ix, pages
}

func TestForDocStableAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		counts := make([]int, n)
		for d := postings.DocID(0); d < 10000; d++ {
			s := shard.ForDoc(d, n)
			if s < 0 || s >= n {
				t.Fatalf("ForDoc(%d, %d) = %d out of range", d, n, s)
			}
			if s2 := shard.ForDoc(d, n); s2 != s {
				t.Fatalf("ForDoc(%d, %d) unstable: %d then %d", d, n, s, s2)
			}
			counts[s]++
		}
		// The hash must not starve a partition: with 10000 docs even a
		// loose balance bound catches a broken assignment.
		for s, c := range counts {
			if c < 10000/n/2 {
				t.Errorf("n=%d: partition %d got %d of 10000 docs", n, s, c)
			}
		}
	}
}

// Split into one partition must reproduce the source bit for bit:
// same metadata, same page payloads.
func TestSplitIdentity(t *testing.T) {
	_, ix, pages := buildIndex(t)
	parts, err := shard.Split(ix, pages, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("got %d partitions", len(parts))
	}
	p := parts[0]
	if !reflect.DeepEqual(p.Pages, pages) {
		t.Error("identity split changed page payloads")
	}
	if !reflect.DeepEqual(p.Index.Terms, ix.Terms) {
		t.Error("identity split changed term metadata")
	}
	if p.Index.NumDocs != ix.NumDocs || p.Index.PageSize != ix.PageSize {
		t.Error("identity split changed collection header")
	}
}

func TestSplitPartitionInvariants(t *testing.T) {
	_, ix, pages := buildIndex(t)
	const n = 4
	parts, err := shard.Split(ix, pages, n)
	if err != nil {
		t.Fatal(err)
	}

	// Every term present in every partition with the global statistics.
	for s, p := range parts {
		if len(p.Index.Terms) != len(ix.Terms) {
			t.Fatalf("partition %d has %d terms, want %d", s, len(p.Index.Terms), len(ix.Terms))
		}
		if p.Index.NumDocs != ix.NumDocs {
			t.Errorf("partition %d NumDocs = %d, want global %d", s, p.Index.NumDocs, ix.NumDocs)
		}
		for t2 := range ix.Terms {
			want, got := &ix.Terms[t2], &p.Index.Terms[t2]
			if got.DF != want.DF || got.IDF != want.IDF || got.FMax != want.FMax {
				t.Fatalf("partition %d term %d: stats (%d, %v, %d), want global (%d, %v, %d)",
					s, t2, got.DF, got.IDF, got.FMax, want.DF, want.IDF, want.FMax)
			}
		}
	}

	// Each term's postings are partitioned exactly: disjoint by ForDoc,
	// complete, frequency-sort preserved, and page min/max metadata
	// consistent with the payloads.
	for t2 := range ix.Terms {
		var whole []postings.Entry
		for i := 0; i < ix.Terms[t2].NumPages; i++ {
			whole = append(whole, pages[ix.PageOf(postings.TermID(t2), i)]...)
		}
		var got int
		for s, p := range parts {
			tm := &p.Index.Terms[t2]
			var local []postings.Entry
			for i := 0; i < tm.NumPages; i++ {
				pg := p.Pages[p.Index.PageOf(postings.TermID(t2), i)]
				if int32(len(pg)) == 0 {
					t.Fatalf("partition %d term %d page %d empty", s, t2, i)
				}
				var min, max int32 = pg[0].Freq, pg[0].Freq
				for _, e := range pg {
					if e.Freq < min {
						min = e.Freq
					}
					if e.Freq > max {
						max = e.Freq
					}
				}
				tid := postings.TermID(t2)
				if min != p.Index.PageMinFreq(tid)[i] || max != p.Index.PageMaxFreq(tid)[i] {
					t.Fatalf("partition %d term %d page %d: min/max metadata (%d, %d), payload (%d, %d)",
						s, t2, i, p.Index.PageMinFreq(tid)[i], p.Index.PageMaxFreq(tid)[i], min, max)
				}
				local = append(local, pg...)
			}
			for i, e := range local {
				if shard.ForDoc(e.Doc, len(parts)) != s {
					t.Fatalf("partition %d term %d holds doc %d assigned elsewhere", s, t2, e.Doc)
				}
				if i > 0 {
					prev := local[i-1]
					if e.Freq > prev.Freq || (e.Freq == prev.Freq && e.Doc < prev.Doc) {
						t.Fatalf("partition %d term %d: frequency sort violated at %d", s, t2, i)
					}
				}
			}
			got += len(local)
		}
		if got != len(whole) {
			t.Fatalf("term %d: partitions hold %d entries, source %d", t2, got, len(whole))
		}
	}
}

func TestSplitRejectsBadCount(t *testing.T) {
	_, ix, pages := buildIndex(t)
	if _, err := shard.Split(ix, pages, 0); err == nil {
		t.Error("Split(0) succeeded")
	}
	if _, err := shard.Split(ix, pages, -3); err == nil {
		t.Error("Split(-3) succeeded")
	}
}

// TestSplitPagesOwnTheirEntries: Split gathers each term's local
// entries in scratch slices it reuses for the next term, and its
// caller may drop the source pages (Open closes a file-backed source).
// So every partition's pages must hold exactly its documents' entries
// of the source list after the whole split, and keep them when the
// source pages are overwritten.
func TestSplitPagesOwnTheirEntries(t *testing.T) {
	_, ix, pages := buildIndex(t)
	const n = 3
	want := make([][][]postings.Entry, len(ix.Terms)) // [term][partition]
	for term := range ix.Terms {
		want[term] = make([][]postings.Entry, n)
		for _, e := range postings.ListPostings(pages, ix, postings.TermID(term)) {
			s := shard.ForDoc(e.Doc, n)
			want[term][s] = append(want[term][s], e)
		}
	}
	parts, err := shard.Split(ix, pages, n)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for term := range ix.Terms {
			for s, p := range parts {
				got := postings.ListPostings(p.Pages, p.Index, postings.TermID(term))
				if !slices.Equal(got, want[term][s]) {
					t.Fatalf("%s: partition %d term %d holds %v, want %v", when, s, term, got, want[term][s])
				}
			}
		}
	}
	check("after the split")
	for _, pg := range pages {
		for i := range pg {
			pg[i] = postings.Entry{Doc: -1, Freq: -1}
		}
	}
	check("after the source pages were overwritten")
}
