package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bufir/internal/corpus"
	"bufir/internal/postings"
)

// uvarints encodes vals back to back.
func uvarints(vals ...uint64) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// TestDecodeRejectsInt32Overflow: a frequency or document id past the
// entry's int32 fields fails the decode instead of wrapping into a
// valid-looking entry.
func TestDecodeRejectsInt32Overflow(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		// numRuns firstFreq | drop count firstDoc gap*
		{"first frequency", uvarints(1, 1<<32+5, 0, 1, 1<<31+3)},
		{"first frequency 2^31", uvarints(1, 1<<31, 0, 1, 3)},
		{"first document", uvarints(1, 5, 0, 1, 1<<31+3)},
		{"document grown by gaps", uvarints(1, 5, 0, 3, math.MaxInt32-10, 4, 5)},
		{"document grown by a huge gap", uvarints(1, 5, 0, 2, 7, math.MaxUint64)},
		{"frequency drop past zero", uvarints(2, 5, 0, 1, 3, math.MaxUint64, 1, 4)},
	} {
		if got, err := DecodePage(tc.data, nil); err == nil {
			t.Errorf("%s: decoded to %+v with a nil error", tc.name, got)
		}
	}
	// The largest values that fit still decode.
	got, err := DecodePage(uvarints(1, math.MaxInt32, 0, 2, math.MaxInt32-2, 1), nil)
	want := []postings.Entry{{Doc: math.MaxInt32 - 2, Freq: math.MaxInt32}, {Doc: math.MaxInt32, Freq: math.MaxInt32}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("largest values: %+v, %v; want %+v", got, err, want)
	}
}

// TestDecodeAllocatesOnce: decoding into a nil dst allocates one
// entries slice; a presized dst is filled without allocating.
func TestDecodeAllocatesOnce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	in := randomPage(r)
	for len(in) < 150 {
		in = randomPage(r)
	}
	enc, err := EncodePage(in)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = DecodePage(enc, nil) }); n != 1 {
		t.Errorf("nil dst: %v allocations per decode, want 1", n)
	}
	dst := make([]postings.Entry, 0, len(in))
	if n := testing.AllocsPerRun(20, func() { _, _ = DecodePage(enc, dst) }); n != 0 {
		t.Errorf("presized dst: %v allocations per decode, want 0", n)
	}
}

// referenceDecodePage is the decoder DecodePage replaced — a closure
// per varint and append per entry — kept as the differential oracle.
// wrapped reports that a value it read did not fit int32, the inputs
// it accepted with truncated values.
func referenceDecodePage(data []byte) (dst []postings.Entry, wrapped bool, err error) {
	pos := 0
	get := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("codec: truncated page at offset %d", pos)
		}
		pos += n
		return v, nil
	}
	numRuns, err := get()
	if err != nil {
		return nil, false, err
	}
	if numRuns == 0 || numRuns > uint64(len(data)) {
		return nil, false, fmt.Errorf("codec: implausible run count %d", numRuns)
	}
	firstFreq, err := get()
	if err != nil {
		return nil, false, err
	}
	wrapped = firstFreq > math.MaxInt32
	freq := int64(firstFreq)
	for r := uint64(0); r < numRuns; r++ {
		drop, err := get()
		if err != nil {
			return nil, wrapped, err
		}
		wrapped = wrapped || drop > math.MaxInt32
		freq -= int64(drop)
		if freq < 1 {
			return nil, wrapped, fmt.Errorf("codec: run %d frequency %d < 1", r, freq)
		}
		count, err := get()
		if err != nil {
			return nil, wrapped, err
		}
		if count == 0 || count > uint64(len(data))+1 {
			return nil, wrapped, fmt.Errorf("codec: implausible run length %d", count)
		}
		doc, err := get()
		if err != nil {
			return nil, wrapped, err
		}
		wrapped = wrapped || doc > math.MaxInt32
		d := int64(doc)
		dst = append(dst, postings.Entry{Doc: postings.DocID(d), Freq: int32(freq)})
		for i := uint64(1); i < count; i++ {
			gap, err := get()
			if err != nil {
				return nil, wrapped, err
			}
			d += int64(gap) + 1
			wrapped = wrapped || gap > math.MaxInt32 || d > math.MaxInt32
			dst = append(dst, postings.Entry{Doc: postings.DocID(d), Freq: int32(freq)})
		}
	}
	if pos != len(data) {
		return nil, wrapped, fmt.Errorf("codec: %d trailing bytes after page", len(data)-pos)
	}
	return dst, wrapped, nil
}

// checkAgainstReference fails unless DecodePage accepts exactly what
// the reference accepts, with the same entries — except inputs whose
// values overflow int32, which DecodePage must reject.
func checkAgainstReference(t *testing.T, label string, data []byte) {
	t.Helper()
	want, wrapped, werr := referenceDecodePage(data)
	got, err := DecodePage(data, nil)
	switch {
	case wrapped:
		if err == nil {
			t.Fatalf("%s: overflowing input %x decoded to %+v", label, data, got)
		}
	case (err == nil) != (werr == nil):
		t.Fatalf("%s: input %x: err %v, reference err %v", label, data, err, werr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: input %x: %+v, reference %+v", label, data, got, want)
	}
}

// fuzzCorpus returns the checked-in seed inputs of FuzzCodecRoundTrip.
func fuzzCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzCodecRoundTrip")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, f := range files {
		buf, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		line := strings.TrimSpace(strings.SplitN(string(buf), "\n", 2)[1])
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		out[f.Name()] = []byte(s)
	}
	return out
}

// realPages encodes the pages of the tiny synthetic collection.
func realPages(t testing.TB, cfg corpus.Config) [][]byte {
	t.Helper()
	coll, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, pages, err := postings.Build(coll.Lists, coll.NumDocs, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	blobs := make([][]byte, len(pages))
	for i, p := range pages {
		if blobs[i], err = EncodePage(p); err != nil {
			t.Fatal(err)
		}
	}
	return blobs
}

// TestDecodeMatchesReference holds DecodePage to the replaced decoder
// on the fuzz corpus, on real pages and on seeded mutations of them:
// flipped, inserted and deleted bytes, truncations, and varints
// overwritten with values at the int32 edge.
func TestDecodeMatchesReference(t *testing.T) {
	for name, data := range fuzzCorpus(t) {
		checkAgainstReference(t, name, data)
	}
	r := rand.New(rand.NewSource(1998))
	blobs := realPages(t, corpus.TinyConfig(1998))
	for i := 0; i < 20000; i++ {
		blob := blobs[r.Intn(len(blobs))]
		data := append([]byte(nil), blob...)
		checkAgainstReference(t, "real", data)
		for m := 1 + r.Intn(3); m > 0 && len(data) > 0; m-- {
			at := r.Intn(len(data))
			switch r.Intn(5) {
			case 0:
				data[at] ^= byte(1 << r.Intn(8))
			case 1:
				data = append(data[:at], append([]byte{byte(r.Intn(256))}, data[at:]...)...)
			case 2:
				data = append(data[:at], data[at+1:]...)
			case 3:
				data = data[:at]
			case 4:
				edge := []uint64{math.MaxInt32 - 1, math.MaxInt32, math.MaxInt32 + 1, math.MaxUint32, math.MaxUint64}[r.Intn(5)]
				data = append(append(append([]byte(nil), data[:at]...), uvarints(edge)...), data[at+1:]...)
			}
		}
		checkAgainstReference(t, fmt.Sprintf("mutation %d", i), data)
	}
}

// BenchmarkDecodePage prices the decoder on the pages of the
// 40 000-document collection, with a nil dst (one allocation per page),
// with one dst presized to hold every page, and with a recycled dst:
// each page decodes into the entries the previous page's decode
// returned, the way a buffer miss decodes into the entries of the frame
// it evicts (an allocation only when a page outgrows them).
func BenchmarkDecodePage(b *testing.B) {
	blobs := realPages(b, corpus.DefaultConfig(1998))
	entries := 0
	for _, blob := range blobs {
		page, err := DecodePage(blob, nil)
		if err != nil {
			b.Fatal(err)
		}
		entries += len(page)
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
		b.ReportMetric(float64(len(blobs)), "pages/op")
	}
	var dst []postings.Entry
	for _, presized := range []bool{false, true} {
		if presized {
			dst = make([]postings.Entry, 0, entries)
		}
		b.Run(fmt.Sprintf("presized=%v", presized), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, blob := range blobs {
					if _, err := DecodePage(blob, dst); err != nil {
						b.Fatal(err)
					}
				}
			}
			report(b)
		})
	}
	b.Run("recycled", func(b *testing.B) {
		b.ReportAllocs()
		var page []postings.Entry
		for i := 0; i < b.N; i++ {
			for _, blob := range blobs {
				var err error
				if page, err = DecodePage(blob, page); err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b)
	})
}
