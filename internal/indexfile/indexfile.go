// Package indexfile persists the inverted index to a single on-disk
// file and loads it back: a little-endian binary format holding the
// memory-resident metadata (term dictionary, idf inputs, page minima
// and maxima, document vector lengths) and the inverted-list pages in
// the compressed [PZSD96] format, protected by a CRC32 checksum. A
// saved index reloads into exactly the state postings.Build produced,
// so query execution over a loaded index is identical.
//
// Format (all integers unsigned varints unless noted):
//
//	magic    "BUFIR1\n"            (7 bytes)
//	numDocs pageSize numTerms
//	per term: nameLen name df fMax numPages
//	          pageMinFreq[numPages] pageMaxFreq[numPages]
//	docLen[numDocs]                (float64 bits, varint-encoded)
//	numPages
//	per page: byteLen codecPage
//	auxFlag  (1 if an aux section follows)
//	aux:     numDocNames (nameLen name)* numStopWords (len word)*
//	crc32    (IEEE, 4 bytes little-endian, over everything above)
package indexfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"bufir/internal/codec"
	"bufir/internal/postings"
)

const magic = "BUFIR1\n"

// Aux carries the optional text-pipeline state of a document-built
// index: external document names and the applied stop-word list (from
// which the lexical pipeline is reconstructed on load).
type Aux struct {
	DocNames  []string
	StopWords []string
}

// Save writes the index, its page payloads and optional aux data to w.
func Save(w io.Writer, ix *postings.Index, pages [][]postings.Entry, aux *Aux) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		_, err := bw.Write(tmp[:n])
		return err
	}

	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := put(uint64(ix.NumDocs)); err != nil {
		return err
	}
	if err := put(uint64(ix.PageSize)); err != nil {
		return err
	}
	if err := put(uint64(len(ix.Terms))); err != nil {
		return err
	}
	for t := range ix.Terms {
		tm := &ix.Terms[t]
		if err := put(uint64(len(tm.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(tm.Name); err != nil {
			return err
		}
		if err := put(uint64(tm.DF)); err != nil {
			return err
		}
		if err := put(uint64(tm.FMax)); err != nil {
			return err
		}
		if err := put(uint64(tm.NumPages)); err != nil {
			return err
		}
		for _, v := range tm.PageMinFreq {
			if err := put(uint64(v)); err != nil {
				return err
			}
		}
		for _, v := range tm.PageMaxFreq {
			if err := put(uint64(v)); err != nil {
				return err
			}
		}
	}
	for _, wd := range ix.DocLen {
		if err := put(math.Float64bits(wd)); err != nil {
			return err
		}
	}
	if err := put(uint64(len(pages))); err != nil {
		return err
	}
	for i, page := range pages {
		enc, err := codec.EncodePage(page)
		if err != nil {
			return fmt.Errorf("indexfile: page %d: %w", i, err)
		}
		if err := put(uint64(len(enc))); err != nil {
			return err
		}
		if _, err := bw.Write(enc); err != nil {
			return err
		}
	}
	putString := func(str string) error {
		if err := put(uint64(len(str))); err != nil {
			return err
		}
		_, err := bw.WriteString(str)
		return err
	}
	if aux == nil {
		if err := put(0); err != nil {
			return err
		}
	} else {
		if err := put(1); err != nil {
			return err
		}
		if err := put(uint64(len(aux.DocNames))); err != nil {
			return err
		}
		for _, name := range aux.DocNames {
			if err := putString(name); err != nil {
				return err
			}
		}
		if err := put(uint64(len(aux.StopWords))); err != nil {
			return err
		}
		for _, word := range aux.StopWords {
			if err := putString(word); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.Write(sum[:])
	return err
}

// SaveFile writes the index to path (atomically via a temp file plus
// rename).
func SaveFile(path string, ix *postings.Index, pages [][]postings.Entry, aux *Aux) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Save(f, ix, pages, aux); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// crcReader hashes everything read through it, allowing the final
// 4-byte checksum to be validated without buffering the whole file.
type crcReader struct {
	r   *bufio.Reader
	crc hash.Hash32
}

func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.crc.Write([]byte{b})
	}
	return b, err
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

// Load reads an index written by Save. The returned Aux is nil when
// the file carries no aux section.
func Load(r io.Reader) (*postings.Index, [][]postings.Entry, *Aux, error) {
	cr := &crcReader{r: bufio.NewReader(r), crc: crc32.NewIEEE()}
	get := func() (uint64, error) { return binary.ReadUvarint(cr) }

	head := make([]byte, len(magic))
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, nil, nil, fmt.Errorf("indexfile: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, nil, nil, fmt.Errorf("indexfile: bad magic %q", head)
	}

	numDocs, err := get()
	if err != nil {
		return nil, nil, nil, err
	}
	pageSize, err := get()
	if err != nil {
		return nil, nil, nil, err
	}
	numTerms, err := get()
	if err != nil {
		return nil, nil, nil, err
	}
	const sanity = 1 << 31
	if numDocs == 0 || numDocs > sanity || pageSize == 0 || pageSize > sanity || numTerms > sanity {
		return nil, nil, nil, fmt.Errorf("indexfile: implausible header (%d docs, %d page size, %d terms)",
			numDocs, pageSize, numTerms)
	}

	ix := &postings.Index{
		NumDocs:  int(numDocs),
		PageSize: int(pageSize),
		Terms:    make([]postings.TermMeta, numTerms),
		Vocab:    make(map[string]postings.TermID, numTerms),
	}
	nextPage := postings.PageID(0)
	for t := range ix.Terms {
		nameLen, err := get()
		if err != nil {
			return nil, nil, nil, err
		}
		if nameLen > 4096 {
			return nil, nil, nil, fmt.Errorf("indexfile: term %d name length %d implausible", t, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(cr, name); err != nil {
			return nil, nil, nil, err
		}
		df, err := get()
		if err != nil {
			return nil, nil, nil, err
		}
		fmax, err := get()
		if err != nil {
			return nil, nil, nil, err
		}
		numPages, err := get()
		if err != nil {
			return nil, nil, nil, err
		}
		// numPages == 0 is legal: a shard file keeps the global DF of a
		// term whose postings all live in other partitions.
		if df == 0 || numPages > df {
			return nil, nil, nil, fmt.Errorf("indexfile: term %q invalid df=%d pages=%d", name, df, numPages)
		}
		tm := postings.TermMeta{
			Name:        string(name),
			DF:          int(df),
			IDF:         postings.IDFValue(int(numDocs), int(df)),
			FMax:        int32(fmax),
			FirstPage:   nextPage,
			NumPages:    int(numPages),
			PageMinFreq: make([]int32, numPages),
			PageMaxFreq: make([]int32, numPages),
		}
		for i := range tm.PageMinFreq {
			v, err := get()
			if err != nil {
				return nil, nil, nil, err
			}
			tm.PageMinFreq[i] = int32(v)
		}
		for i := range tm.PageMaxFreq {
			v, err := get()
			if err != nil {
				return nil, nil, nil, err
			}
			tm.PageMaxFreq[i] = int32(v)
		}
		nextPage += postings.PageID(numPages)
		if _, dup := ix.Vocab[tm.Name]; dup {
			return nil, nil, nil, fmt.Errorf("indexfile: duplicate term %q", tm.Name)
		}
		ix.Vocab[tm.Name] = postings.TermID(t)
		ix.Terms[t] = tm
	}
	ix.DocLen = make([]float64, numDocs)
	for d := range ix.DocLen {
		bits, err := get()
		if err != nil {
			return nil, nil, nil, err
		}
		ix.DocLen[d] = math.Float64frombits(bits)
	}

	numPages, err := get()
	if err != nil {
		return nil, nil, nil, err
	}
	if numPages != uint64(nextPage) {
		return nil, nil, nil, fmt.Errorf("indexfile: page count %d does not match term layout %d", numPages, nextPage)
	}
	pages := make([][]postings.Entry, numPages)
	t, off := 0, 0 // page i is page off of term t's list
	for i := range pages {
		for off == ix.Terms[t].NumPages {
			t, off = t+1, 0
		}
		byteLen, err := get()
		if err != nil {
			return nil, nil, nil, err
		}
		if byteLen == 0 || byteLen > uint64(pageSize)*12+64 {
			return nil, nil, nil, fmt.Errorf("indexfile: page %d implausible size %d", i, byteLen)
		}
		buf := make([]byte, byteLen)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return nil, nil, nil, err
		}
		// An entry takes at least a byte, so the blob bounds what
		// unverified metadata may ask for.
		n := min(ix.Terms[t].PageEntries(off, int(pageSize)), len(buf))
		off++
		page, err := codec.DecodePage(buf, make([]postings.Entry, 0, n))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("indexfile: page %d: %w", i, err)
		}
		if len(page) > int(pageSize) {
			return nil, nil, nil, fmt.Errorf("indexfile: page %d holds %d entries > page size %d", i, len(page), pageSize)
		}
		pages[i] = page
	}

	var aux *Aux
	auxFlag, err := get()
	if err != nil {
		return nil, nil, nil, err
	}
	getString := func(maxLen uint64) (string, error) {
		n, err := get()
		if err != nil {
			return "", err
		}
		if n > maxLen {
			return "", fmt.Errorf("indexfile: string length %d implausible", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(cr, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	switch auxFlag {
	case 0:
	case 1:
		aux = &Aux{}
		nNames, err := get()
		if err != nil {
			return nil, nil, nil, err
		}
		if nNames > numDocs {
			return nil, nil, nil, fmt.Errorf("indexfile: %d doc names for %d docs", nNames, numDocs)
		}
		for i := uint64(0); i < nNames; i++ {
			name, err := getString(1 << 16)
			if err != nil {
				return nil, nil, nil, err
			}
			aux.DocNames = append(aux.DocNames, name)
		}
		nStop, err := get()
		if err != nil {
			return nil, nil, nil, err
		}
		if nStop > 1<<20 {
			return nil, nil, nil, fmt.Errorf("indexfile: %d stop-words implausible", nStop)
		}
		for i := uint64(0); i < nStop; i++ {
			word, err := getString(4096)
			if err != nil {
				return nil, nil, nil, err
			}
			aux.StopWords = append(aux.StopWords, word)
		}
	default:
		return nil, nil, nil, fmt.Errorf("indexfile: unknown aux flag %d", auxFlag)
	}

	want := cr.crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(cr.r, sum[:]); err != nil {
		return nil, nil, nil, fmt.Errorf("indexfile: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, nil, nil, fmt.Errorf("indexfile: checksum mismatch (file %08x, computed %08x)", got, want)
	}

	if err := ix.RebuildPageMaps(); err != nil {
		return nil, nil, nil, err
	}
	return ix, pages, aux, nil
}

// LoadFile reads an index from path.
func LoadFile(path string) (*postings.Index, [][]postings.Entry, *Aux, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	return Load(f)
}
