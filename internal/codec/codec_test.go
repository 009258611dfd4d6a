package codec

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bufir/internal/postings"
)

func page(entries ...postings.Entry) []postings.Entry { return entries }

func TestRoundTripBasic(t *testing.T) {
	cases := [][]postings.Entry{
		page(postings.Entry{Doc: 0, Freq: 1}),
		page(postings.Entry{Doc: 5, Freq: 9}, postings.Entry{Doc: 2, Freq: 7}, postings.Entry{Doc: 9, Freq: 7}),
		page(
			postings.Entry{Doc: 100, Freq: 3},
			postings.Entry{Doc: 0, Freq: 1}, postings.Entry{Doc: 1, Freq: 1},
			postings.Entry{Doc: 2, Freq: 1}, postings.Entry{Doc: 1000000, Freq: 1},
		),
	}
	for i, in := range cases {
		enc, err := EncodePage(in)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := DecodePage(enc, nil)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Errorf("case %d: round trip %v != %v", i, got, in)
		}
	}
}

func TestEncodeRejectsBadPages(t *testing.T) {
	bad := [][]postings.Entry{
		nil, // empty
		page(postings.Entry{Doc: 1, Freq: 2}, postings.Entry{Doc: 0, Freq: 3}), // freq ascending
		page(postings.Entry{Doc: 5, Freq: 2}, postings.Entry{Doc: 5, Freq: 2}), // duplicate doc
		page(postings.Entry{Doc: 5, Freq: 2}, postings.Entry{Doc: 3, Freq: 2}), // doc descending in run
		page(postings.Entry{Doc: 1, Freq: 2}, postings.Entry{Doc: 0, Freq: 0}), // zero freq
	}
	for i, in := range bad {
		if _, err := EncodePage(in); err == nil {
			t.Errorf("case %d: expected encode error", i)
		}
	}
}

func TestDecodeRejectsCorruptData(t *testing.T) {
	good, err := EncodePage(page(
		postings.Entry{Doc: 3, Freq: 5}, postings.Entry{Doc: 1, Freq: 2}, postings.Entry{Doc: 7, Freq: 2},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix must fail, never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodePage(good[:cut], nil); err == nil {
			t.Errorf("truncation at %d decoded successfully", cut)
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodePage(append(append([]byte{}, good...), 0x7), nil); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A frequency drop below 1 is rejected.
	if _, err := DecodePage([]byte{2, 1, 0, 1, 0, 5, 1, 0}, nil); err == nil {
		t.Error("underflowing frequency accepted")
	}
}

// randomPage builds a valid frequency-sorted page.
func randomPage(r *rand.Rand) []postings.Entry {
	n := 1 + r.Intn(200)
	entries := make([]postings.Entry, n)
	used := map[int32]bool{}
	for i := range entries {
		var d int32
		for {
			d = int32(r.Intn(1_000_000))
			if !used[d] {
				used[d] = true
				break
			}
		}
		entries[i] = postings.Entry{Doc: postings.DocID(d), Freq: int32(1 + r.Intn(40))}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Freq != entries[j].Freq {
			return entries[i].Freq > entries[j].Freq
		}
		return entries[i].Doc < entries[j].Doc
	})
	return entries
}

func TestRoundTripRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for iter := 0; iter < 500; iter++ {
		in := randomPage(r)
		enc, err := EncodePage(in)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got, err := DecodePage(enc, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("iter %d: round trip mismatch", iter)
		}
	}
}

func TestDecodeReusesBuffer(t *testing.T) {
	in := page(postings.Entry{Doc: 1, Freq: 3}, postings.Entry{Doc: 2, Freq: 1})
	enc, _ := EncodePage(in)
	buf := make([]postings.Entry, 0, 16)
	got, err := DecodePage(enc, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("decode did not reuse the provided buffer")
	}
}

// TestCompressionRatio: on realistic skewed data (mostly f=1, dense
// doc gaps) the format should approach the paper's ~1 byte/entry.
func TestCompressionRatio(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	// A dense low-idf list: ~25% of a 40k-doc collection, skewed freqs.
	n := 10_000
	docs := r.Perm(40_000)[:n]
	sort.Ints(docs)
	entries := make([]postings.Entry, n)
	for i, d := range docs {
		f := int32(1)
		for f < 12 && r.Float64() < 0.3 {
			f++
		}
		entries[i] = postings.Entry{Doc: postings.DocID(d), Freq: f}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Freq != entries[j].Freq {
			return entries[i].Freq > entries[j].Freq
		}
		return entries[i].Doc < entries[j].Doc
	})
	// Page it like the index would and measure.
	var pages [][]postings.Entry
	for start := 0; start < n; start += 404 {
		end := start + 404
		if end > n {
			end = n
		}
		pages = append(pages, entries[start:end])
	}
	var st Stats
	for _, p := range pages {
		enc, err := EncodePage(p)
		if err != nil {
			t.Fatal(err)
		}
		st.Entries += len(p)
		st.EncodedBytes += len(enc)
		st.RawBytes += 6 * len(p)
	}
	if bpe := st.BytesPerEntry(); bpe > 2.0 {
		t.Errorf("bytes/entry = %.2f, want <= 2.0 (paper: ~1)", bpe)
	}
	if st.Ratio() < 3 {
		t.Errorf("compression ratio = %.1f, want >= 3 (paper: ~6)", st.Ratio())
	}
}

func TestStatsZeroValues(t *testing.T) {
	var s Stats
	if s.Ratio() != 0 || s.BytesPerEntry() != 0 {
		t.Error("zero stats should not divide by zero")
	}
}
