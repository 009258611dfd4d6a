// Package codec implements the compressed page format for
// frequency-sorted inverted lists, following Persin, Zobel &
// Sacks-Davis, "Filtered document retrieval with frequency-sorted
// indexes" (JASIS 1996) — the compression scheme behind the paper's
// physical design (§4.2: a 6-byte (d, f_dt) entry compresses to about
// one byte, so a tenth of a 4 KB page holds 404 entries).
//
// A frequency-sorted page is a sequence of runs of equal f_dt with
// ascending document ids inside each run. The encoding exploits both:
//
//	page    := numRuns firstFreq run*
//	run     := freqDrop numDocs firstDoc gap*
//	freqDrop:= previous run's frequency − this run's frequency (>= 0;
//	           the first run stores 0 and uses firstFreq)
//	gap     := doc − previousDoc − 1 (>= 0)
//
// All values are unsigned varints (encoding/binary). Typical cost is
// ~1 byte per entry on realistic frequency distributions, matching
// the paper's assumption.
package codec

import (
	"encoding/binary"
	"fmt"

	"bufir/internal/postings"
)

// EncodePage compresses one frequency-sorted page of postings.
// Entries must be sorted by (Freq descending, Doc ascending) — the
// invariant postings.Build establishes; EncodePage verifies it and
// fails loudly on violation rather than producing an undecodable page.
func EncodePage(entries []postings.Entry) ([]byte, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("codec: empty page")
	}
	// Validate ordering.
	for i := 1; i < len(entries); i++ {
		prev, cur := entries[i-1], entries[i]
		if cur.Freq > prev.Freq || (cur.Freq == prev.Freq && cur.Doc <= prev.Doc) {
			return nil, fmt.Errorf("codec: page not frequency-sorted at entry %d", i)
		}
		if cur.Freq < 1 {
			return nil, fmt.Errorf("codec: non-positive frequency at entry %d", i)
		}
	}
	if entries[0].Freq < 1 || entries[0].Doc < 0 {
		return nil, fmt.Errorf("codec: invalid first entry %+v", entries[0])
	}

	// Split into runs of equal frequency.
	type run struct{ start, end int }
	var runs []run
	start := 0
	for i := 1; i <= len(entries); i++ {
		if i == len(entries) || entries[i].Freq != entries[start].Freq {
			runs = append(runs, run{start, i})
			start = i
		}
	}

	buf := make([]byte, 0, len(entries)+16)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}

	put(uint64(len(runs)))
	put(uint64(entries[0].Freq))
	prevFreq := entries[0].Freq
	for _, r := range runs {
		f := entries[r.start].Freq
		put(uint64(prevFreq - f))
		prevFreq = f
		put(uint64(r.end - r.start))
		put(uint64(entries[r.start].Doc))
		prevDoc := entries[r.start].Doc
		for i := r.start + 1; i < r.end; i++ {
			put(uint64(entries[i].Doc - prevDoc - 1))
			prevDoc = entries[i].Doc
		}
	}
	return buf, nil
}

// DecodePage reconstructs a page encoded by EncodePage. The dst slice
// is reused if it has capacity (pass nil to allocate).
func DecodePage(data []byte, dst []postings.Entry) ([]postings.Entry, error) {
	dst = dst[:0]
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
		return nil, err
	}
	if numRuns == 0 || numRuns > uint64(len(data)) {
		return nil, fmt.Errorf("codec: implausible run count %d", numRuns)
	}
	firstFreq, err := get()
	if err != nil {
		return nil, err
	}
	freq := int64(firstFreq)
	for r := uint64(0); r < numRuns; r++ {
		drop, err := get()
		if err != nil {
			return nil, err
		}
		freq -= int64(drop)
		if freq < 1 {
			return nil, fmt.Errorf("codec: run %d frequency %d < 1", r, freq)
		}
		count, err := get()
		if err != nil {
			return nil, err
		}
		if count == 0 || count > uint64(len(data))+1 {
			return nil, fmt.Errorf("codec: implausible run length %d", count)
		}
		doc, err := get()
		if err != nil {
			return nil, err
		}
		d := int64(doc)
		dst = append(dst, postings.Entry{Doc: postings.DocID(d), Freq: int32(freq)})
		for i := uint64(1); i < count; i++ {
			gap, err := get()
			if err != nil {
				return nil, err
			}
			d += int64(gap) + 1
			dst = append(dst, postings.Entry{Doc: postings.DocID(d), Freq: int32(freq)})
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("codec: %d trailing bytes after page", len(data)-pos)
	}
	return dst, nil
}

// Stats describes the compression achieved over a set of pages.
type Stats struct {
	Entries      int
	EncodedBytes int
	// RawBytes is the paper's uncompressed baseline: 6 bytes per
	// entry (4-byte document id + 2-byte frequency, §4.2).
	RawBytes int
}

// Ratio returns RawBytes / EncodedBytes.
func (s Stats) Ratio() float64 {
	if s.EncodedBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.EncodedBytes)
}

// BytesPerEntry returns the average encoded entry size.
func (s Stats) BytesPerEntry() float64 {
	if s.Entries == 0 {
		return 0
	}
	return float64(s.EncodedBytes) / float64(s.Entries)
}
