package indexfile_test

// The metadata golden: a digest of every memory-resident per-term and
// per-page statistic, and of every conversion-table answer, for each
// way an index's metadata comes into being — postings.Build, a reopened
// page file, shard.Split and a live commit — at two collection scales.
// A change to how that metadata is stored must leave every digest as
// it is; `go test ./internal/indexfile -run TestMetadataGolden -update`
// rewrites testdata/golden_meta.json, only when the metadata is meant
// to change.

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bufir/internal/corpus"
	"bufir/internal/indexfile"
	"bufir/internal/livedex"
	"bufir/internal/postings"
	"bufir/internal/shard"
	"bufir/internal/storage"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_meta.json from the current code")

const metaGoldenPath = "testdata/golden_meta.json"

// metaDigest summarizes one index's metadata.
type metaDigest struct {
	Terms int `json:"terms"`
	Pages int `json:"pages"`
	// TermsFNV covers each term's name, DF, idf bits, FMax, FirstPage
	// and NumPages.
	TermsFNV string `json:"terms_fnv"`
	// PagesFNV covers each page's term, offset, minimum and maximum
	// f_dt and w* bits.
	PagesFNV string `json:"pages_fnv"`
	// ConvFNV covers ConversionTable.Pages for every term at every
	// integer threshold 0..DefaultMaxKey+1 (the last one past the
	// tabulated range).
	ConvFNV   string `json:"conv_fnv"`
	ConvBytes int    `json:"conv_bytes"`
}

func digestIndex(t *testing.T, ix *postings.Index) metaDigest {
	t.Helper()
	put := func(h hash.Hash64, vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	sum := func(h hash.Hash64) string { return hex.EncodeToString(h.Sum(nil)) }

	terms := fnv.New64a()
	for i := range ix.Terms {
		tm := &ix.Terms[i]
		terms.Write([]byte(tm.Name))
		put(terms, uint64(tm.DF), math.Float64bits(tm.IDF), uint64(tm.FMax), uint64(tm.FirstPage), uint64(tm.NumPages))
	}
	pages := fnv.New64a()
	for p := postings.PageID(0); int(p) < ix.NumPagesTotal; p++ {
		term, off := ix.TermOfPage(p), ix.PageOffset(p)
		if ix.PageOf(term, int(off)) != p {
			t.Fatalf("page %d maps to term %d offset %d, which is page %d", p, term, off, ix.PageOf(term, int(off)))
		}
		put(pages, uint64(term), uint64(off),
			uint64(ix.PageMinFreq(term)[off]), uint64(ix.PageMaxFreq(term)[off]),
			math.Float64bits(ix.PageWStar(p)))
	}
	ct := postings.NewConversionTable(ix, postings.DefaultMaxKey)
	conv := fnv.New64a()
	for i := range ix.Terms {
		for k := 0; k <= postings.DefaultMaxKey+1; k++ {
			put(conv, uint64(ct.Pages(postings.TermID(i), float64(k))))
		}
	}
	return metaDigest{
		Terms:     len(ix.Terms),
		Pages:     ix.NumPagesTotal,
		TermsFNV:  sum(terms),
		PagesFNV:  sum(pages),
		ConvFNV:   sum(conv),
		ConvBytes: ct.SizeBytes(),
	}
}

// liveCommit builds a main generation over the first two thirds of the
// collection's documents, adds the rest through a live State and
// commits.
func liveCommit(t *testing.T, col *corpus.Collection) *postings.Index {
	t.Helper()
	split := col.NumDocs * 2 / 3
	var main []postings.TermPostings
	added := make([]map[string]int, col.NumDocs-split)
	for _, lp := range col.Lists {
		var kept []postings.Entry
		for _, e := range lp.Entries {
			if int(e.Doc) < split {
				kept = append(kept, e)
				continue
			}
			d := int(e.Doc) - split
			if added[d] == nil {
				added[d] = make(map[string]int)
			}
			added[d][lp.Name] = int(e.Freq)
		}
		if len(kept) > 0 {
			main = append(main, postings.TermPostings{Name: lp.Name, Entries: kept})
		}
	}
	mix, mpages, err := postings.Build(main, split, col.Cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	st, err := livedex.NewState(mix, storage.NewStore(mpages), mpages)
	if err != nil {
		t.Fatal(err)
	}
	for d, counts := range added {
		if _, err := st.AddDoc("", counts); err != nil {
			t.Fatalf("doc %d: %v", split+d, err)
		}
	}
	c, err := st.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return c.Meta
}

func TestMetadataGolden(t *testing.T) {
	got := map[string]metaDigest{}
	for _, tc := range []struct {
		name string
		cfg  corpus.Config
	}{
		{"tiny-42", corpus.TinyConfig(42)},
		{"default-1998", corpus.DefaultConfig(1998)},
	} {
		col, err := corpus.Generate(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ix, pages, err := postings.Build(col.Lists, col.NumDocs, tc.cfg.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		got[tc.name+"/build"] = digestIndex(t, ix)

		path := filepath.Join(t.TempDir(), "golden.bufir")
		if err := indexfile.WritePageFile(path, ix, pages, nil); err != nil {
			t.Fatal(err)
		}
		pf, err := indexfile.OpenPageFile(path, indexfile.PageFileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got[tc.name+"/file"] = digestIndex(t, pf.Index)
		pf.Close()

		parts, err := shard.Split(ix, pages, 4)
		if err != nil {
			t.Fatal(err)
		}
		for s, part := range parts {
			got[tc.name+"/split4-"+string(rune('0'+s))] = digestIndex(t, part.Index)
		}

		got[tc.name+"/commit"] = digestIndex(t, liveCommit(t, col))
	}

	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metaGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(metaGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want map[string]metaDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for k, w := range want {
			if got[k] != w {
				t.Errorf("%s: got %+v, golden %+v", k, got[k], w)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s: not in the golden", k)
			}
		}
	}
}
