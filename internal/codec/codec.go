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
	"math"

	"bufir/internal/postings"
)

// EncodePage compresses one frequency-sorted page of postings.
// Entries must be strictly in postings.Before order (Freq descending,
// Doc ascending), the order postings.Build establishes; EncodePage
// verifies it and fails loudly on violation rather than producing an
// undecodable page.
func EncodePage(entries []postings.Entry) ([]byte, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("codec: empty page")
	}
	// Validate ordering.
	for i := 1; i < len(entries); i++ {
		if !postings.Before(entries[i-1], entries[i]) {
			return nil, fmt.Errorf("codec: page not frequency-sorted at entry %d", i)
		}
		if entries[i].Freq < 1 {
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
// is reused if it has capacity (pass nil to allocate); otherwise it is
// grown once, to what the rest of the blob can hold at one byte per
// entry. A frequency or document id that does not fit the entry's
// int32 fields is rejected, never truncated.
func DecodePage(data []byte, dst []postings.Entry) ([]postings.Entry, error) {
	dst = dst[:0]
	numRuns, pos := uvarint(data, 0)
	if pos < 0 {
		return nil, truncated(0)
	}
	if numRuns == 0 || numRuns > uint64(len(data)) {
		return nil, fmt.Errorf("codec: implausible run count %d", numRuns)
	}
	freq, next := uvarint(data, pos)
	if next < 0 {
		return nil, truncated(pos)
	}
	pos = next
	if freq > math.MaxInt32 {
		return nil, fmt.Errorf("codec: first frequency %d overflows int32", freq)
	}
	for r := uint64(0); r < numRuns; r++ {
		drop, next := uvarint(data, pos)
		if next < 0 {
			return nil, truncated(pos)
		}
		pos = next
		if drop >= freq {
			return nil, fmt.Errorf("codec: run %d drops frequency %d by %d, below 1", r, freq, drop)
		}
		freq -= drop
		count, next := uvarint(data, pos)
		if next < 0 {
			return nil, truncated(pos)
		}
		pos = next
		// Every entry still to come takes at least one byte.
		if count == 0 || count > uint64(len(data)-pos) {
			return nil, fmt.Errorf("codec: implausible run length %d", count)
		}
		doc, next := uvarint(data, pos)
		if next < 0 {
			return nil, truncated(pos)
		}
		if doc > math.MaxInt32 {
			return nil, fmt.Errorf("codec: run %d document %d overflows int32", r, doc)
		}
		n := len(dst) + int(count)
		if n > cap(dst) {
			grown := make([]postings.Entry, len(dst), len(dst)+len(data)-pos)
			copy(grown, dst)
			dst = grown
		}
		pos = next
		dst = dst[:n]
		run := dst[n-int(count):]
		f := int32(freq)
		run[0] = postings.Entry{Doc: postings.DocID(doc), Freq: f}
		// doc cannot wrap: each step adds at most 2^31, so wrapping
		// would take 2^32 entries. It is range-checked once per run.
		rest := run[1:]
		for i := range rest {
			// Most gaps are one-byte varints.
			gap := uint64(0)
			if pos < len(data) && data[pos] < 0x80 {
				gap, pos = uint64(data[pos]), pos+1
			} else if gap, next = uvarint(data, pos); next < 0 {
				return nil, truncated(pos)
			} else if gap > math.MaxInt32 {
				return nil, fmt.Errorf("codec: run %d gap %d overflows int32", r, gap)
			} else {
				pos = next
			}
			doc += gap + 1
			rest[i] = postings.Entry{Doc: postings.DocID(doc), Freq: f}
		}
		if doc > math.MaxInt32 {
			return nil, fmt.Errorf("codec: run %d document %d overflows int32", r, doc)
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("codec: %d trailing bytes after page", len(data)-pos)
	}
	return dst, nil
}

// uvarint reads the varint at data[pos:] and returns it with the
// position after it, or with position -1 when the bytes end first or
// the value overflows 64 bits.
func uvarint(data []byte, pos int) (uint64, int) {
	v, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, -1
	}
	return v, pos + n
}

func truncated(pos int) error {
	return fmt.Errorf("codec: truncated page at offset %d", pos)
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
