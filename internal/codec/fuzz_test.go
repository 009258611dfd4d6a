package codec

import (
	"testing"

	"bufir/internal/postings"
)

// FuzzCodecRoundTrip throws arbitrary bytes at DecodePage. Anything
// that decodes successfully must be a legal page — frequencies >= 1
// and non-increasing, document ids >= 0 — and re-encode and decode
// back to the identical entries, unless it is non-canonical in the one
// way the format allows: adjacent runs of equal frequency whose
// documents do not ascend across the seam. Everything else must be
// rejected with an error, never a panic or an out-of-range read.
// Seed corpus: testdata/fuzz/FuzzCodecRoundTrip.
func FuzzCodecRoundTrip(f *testing.F) {
	// Valid encodings of representative pages.
	for _, page := range [][]postings.Entry{
		{{Doc: 0, Freq: 1}},
		{{Doc: 3, Freq: 5}, {Doc: 7, Freq: 5}, {Doc: 2, Freq: 2}},
		{{Doc: 10, Freq: 9}, {Doc: 11, Freq: 9}, {Doc: 12, Freq: 9}, {Doc: 0, Freq: 1}, {Doc: 40000, Freq: 1}},
	} {
		enc, err := EncodePage(page)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Malformed inputs.
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("codec"))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodePage(data, nil)
		if err != nil {
			return // rejected without panicking: fine
		}
		if len(entries) == 0 {
			t.Fatal("DecodePage succeeded with zero entries")
		}
		seam := false
		for i, e := range entries {
			if e.Freq < 1 || e.Doc < 0 || i > 0 && e.Freq > entries[i-1].Freq {
				t.Fatalf("entry %d: decoded %+v out of a legal page", i, e)
			}
			seam = seam || i > 0 && e.Freq == entries[i-1].Freq && e.Doc <= entries[i-1].Doc
		}
		enc, err := EncodePage(entries)
		if err != nil {
			if !seam {
				t.Fatalf("decoded page does not re-encode: %v", err)
			}
			return
		}
		back, err := DecodePage(enc, nil)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back) != len(entries) {
			t.Fatalf("round trip length %d, want %d", len(back), len(entries))
		}
		for i := range entries {
			if back[i] != entries[i] {
				t.Fatalf("entry %d: round trip %+v, want %+v", i, back[i], entries[i])
			}
		}
	})
}
