package storage

import (
	"reflect"
	"testing"

	"bufir/internal/postings"
)

func compressiblePages() [][]postings.Entry {
	return [][]postings.Entry{
		{{Doc: 3, Freq: 9}, {Doc: 0, Freq: 4}, {Doc: 7, Freq: 4}},
		{{Doc: 1, Freq: 1}, {Doc: 2, Freq: 1}, {Doc: 5, Freq: 1}},
		{{Doc: 9, Freq: 2}},
	}
}

func TestCompressedStoreRoundTrip(t *testing.T) {
	raw := compressiblePages()
	cs, err := NewCompressedStore(raw)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumPages() != len(raw) {
		t.Fatalf("NumPages = %d", cs.NumPages())
	}
	for i, want := range raw {
		got, err := read(cs, postings.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("page %d: %v != %v", i, got, want)
		}
	}
	if cs.Reads() != int64(len(raw)) {
		t.Errorf("Reads = %d", cs.Reads())
	}
	if cs.DecodedEntries() != 7 {
		t.Errorf("DecodedEntries = %d, want 7", cs.DecodedEntries())
	}
	cs.ResetReads()
	if cs.Reads() != 0 || cs.DecodedEntries() != 0 {
		t.Error("ResetReads failed")
	}
}

func TestCompressedStoreQuietAndErrors(t *testing.T) {
	cs, err := NewCompressedStore(compressiblePages())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.ReadQuiet(0); err != nil {
		t.Fatal(err)
	}
	if cs.Reads() != 0 {
		t.Error("ReadQuiet counted a read")
	}
	if _, err := read(cs, 99); err == nil {
		t.Error("out-of-range read should fail")
	}
	if _, err := read(cs, -1); err == nil {
		t.Error("negative read should fail")
	}
}

func TestCompressedStoreStats(t *testing.T) {
	cs, err := NewCompressedStore(compressiblePages())
	if err != nil {
		t.Fatal(err)
	}
	st := cs.CompressionStats()
	if st.Entries != 7 {
		t.Errorf("entries = %d", st.Entries)
	}
	if st.RawBytes != 42 { // 7 entries x 6 bytes
		t.Errorf("raw bytes = %d", st.RawBytes)
	}
	if st.EncodedBytes <= 0 || st.EncodedBytes >= st.RawBytes {
		t.Errorf("encoded bytes = %d, want within (0, %d)", st.EncodedBytes, st.RawBytes)
	}
}

func TestCompressedStoreRejectsUnsortedPages(t *testing.T) {
	bad := [][]postings.Entry{{{Doc: 0, Freq: 1}, {Doc: 1, Freq: 5}}}
	if _, err := NewCompressedStore(bad); err == nil {
		t.Error("unsorted page accepted")
	}
}
