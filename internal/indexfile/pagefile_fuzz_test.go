package indexfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPageFileHeader throws arbitrary bytes at the BUFIR3 header parser
// (magic, flags, metadata blob, page directory — everything before
// the data region). The parser must never panic or over-allocate, and
// whatever it does accept must satisfy the invariants every later
// page read rests on: a directory sized to the term layout, pages laid
// back to back from the end of the header, and a data region that ends
// where the last entry ends.
func FuzzPageFileHeader(f *testing.F) {
	// Seeds: pristine headers, bare and with aux data; a file of the
	// retired BUFIR2 format, which must be rejected; and near-misses.
	ix, pages := buildPages(f)
	var bare, withAux bytes.Buffer
	if err := writePageFile(&bare, ix, pages, nil); err != nil {
		f.Fatal(err)
	}
	if err := writePageFile(&withAux, ix, pages, &Aux{DocNames: []string{"a.txt"}, StopWords: []string{"the"}}); err != nil {
		f.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "v2.bufir"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := readHeader(bytes.NewReader(v2)); err == nil {
		f.Fatal("a BUFIR2 header was accepted")
	}
	f.Add(bare.Bytes())
	f.Add(withAux.Bytes())
	f.Add(v2)
	f.Add([]byte(magic))
	f.Add([]byte(magic + "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(bare.Bytes()[:bare.Len()/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := readHeader(bytes.NewReader(data))
		if err != nil {
			return // rejected: the only other acceptable outcome
		}
		if h.ix == nil {
			t.Fatal("accepted header with nil index")
		}
		if len(h.dir) != h.ix.NumPagesTotal {
			t.Fatalf("directory has %d entries for a %d-page term layout", len(h.dir), h.ix.NumPagesTotal)
		}
		next := uint64(h.headerLen)
		for i, e := range h.dir {
			if e.len == 0 {
				t.Fatalf("accepted empty page %d", i)
			}
			if e.off != next {
				t.Fatalf("page %d at offset %d, want %d (back to back from the header)", i, e.off, next)
			}
			next = e.off + uint64(e.len)
		}
		if int64(next) != h.headerLen+h.dataLen {
			t.Fatalf("directory ends at %d but header claims a %d-byte data region after %d header bytes", next, h.dataLen, h.headerLen)
		}
	})
}
