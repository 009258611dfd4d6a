// Package indexfile persists the inverted index in the paged on-disk
// format (BUFIR3), built for demand paging: the memory-resident
// metadata (term dictionary, idf inputs, page minima and maxima,
// document vector lengths) is read once at open, while the
// block-compressed [PZSD96] pages stay on disk and are located through
// a fixed-size page directory, so a storage.FileStore can serve any
// single page with one bounded read (an mmap access or a ReadAt) plus
// one codec decode.
//
// Layout (all fixed-width integers little-endian):
//
//	magic     "BUFIR3\n"                  (7 bytes)
//	flags     reserved, 0                 (1 byte)
//	metaLen   u64
//	meta      metaLen bytes — the memory-resident index metadata as one
//	          varint stream: numDocs pageSize numTerms, per term
//	          (nameLen name df fMax numPages pageMinFreq* pageMaxFreq*),
//	          docLen[numDocs] (float64 bits), auxFlag [aux]
//	metaCRC   u32 (IEEE, over everything above)
//	numPages  u64
//	directory numPages × { length u32, crc u32 } — crc is IEEE over
//	          the page blob
//	dirCRC    u32 (IEEE, over numPages and the directory)
//	data      page blobs in the compressed [PZSD96] codec format, back
//	          to back in page order from the end of the header
//
// Nothing is padded: a page's offset is the header length plus the
// lengths of the pages before it, summed once at open. The header
// (meta + directory) is read and checksum-verified once at open; each
// page blob is checksum-verified on every read against its directory
// entry, so a corrupt page surfaces as a read error on exactly that
// page — isolated, and classified permanent for the buffer manager's
// retry path — instead of poisoning the whole index.
package indexfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"bufir/internal/codec"
	"bufir/internal/postings"
)

const magic = "BUFIR3\n"

// ErrNotIndexFile is what opening a file that does not begin with the
// BUFIR3 magic matches under errors.Is (a file of an earlier format
// version included).
var ErrNotIndexFile = errors.New("not a bufir index file")

// Aux carries the optional text-pipeline state of a document-built
// index: external document names and the applied stop-word list (from
// which the lexical pipeline is reconstructed on load).
type Aux struct {
	DocNames  []string
	StopWords []string
}

// pageDirEntry locates one page blob in the file. Only len and crc
// are stored; off is the prefix sum the reader computes at open.
type pageDirEntry struct {
	off uint64 // from the start of the file
	len uint32
	crc uint32
}

const pageDirEntrySize = 8

// CorruptPageError reports a page blob whose checksum did not match
// its directory entry or, with Reason set, one whose checksum matched
// but whose content the index cannot hold (storage.FileStore's checks
// after the decode). It is permanent: rereading the same bytes cannot
// heal it, so the buffer manager's retry path must not burn its
// budget on it.
type CorruptPageError struct {
	Page   int
	Reason string
}

// Error implements error.
func (e *CorruptPageError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("indexfile: page %d corrupt: %s", e.Page, e.Reason)
	}
	return fmt.Sprintf("indexfile: page %d checksum mismatch (corrupt page blob)", e.Page)
}

// PermanentFault marks the error as not worth retrying (the marker
// interface buffer.RetryPolicy consults).
func (e *CorruptPageError) PermanentFault() bool { return true }

// WritePageFile persists the index in the paged BUFIR3 format,
// atomically (temp file plus rename). It refuses an index whose page
// layout is not postings.Paginate's (checkPaging), such as a shard
// partition's, whose terms keep the collection's DF over local pages.
func WritePageFile(path string, ix *postings.Index, pages [][]postings.Entry, aux *Aux) error {
	for t := range ix.Terms {
		tm := &ix.Terms[t]
		if err := checkPaging(tm.Name, uint64(tm.DF), uint64(tm.NumPages), uint64(ix.PageSize)); err != nil {
			return err
		}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = writePageFile(bw, ix, pages, aux)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
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

// writePageFile writes the full BUFIR3 stream to w.
func writePageFile(w io.Writer, ix *postings.Index, pages [][]postings.Entry, aux *Aux) error {
	if len(pages) != ix.NumPagesTotal {
		return fmt.Errorf("indexfile: %d pages for an index of %d", len(pages), ix.NumPagesTotal)
	}
	meta, err := encodeMeta(ix, aux)
	if err != nil {
		return err
	}

	// Encode every page up front: the directory precedes the data.
	blobs := make([][]byte, len(pages))
	for i, page := range pages {
		enc, err := codec.EncodePage(page)
		if err != nil {
			return fmt.Errorf("indexfile: page %d: %w", i, err)
		}
		blobs[i] = enc
	}

	// Header: magic, flags, metaLen, meta, metaCRC.
	var head bytes.Buffer
	head.WriteString(magic)
	head.WriteByte(0) // flags
	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(len(meta)))
	head.Write(u64[:])
	head.Write(meta)
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(head.Bytes()))
	head.Write(u32[:])

	// Directory: numPages, entries, dirCRC (over numPages + entries).
	dirStart := head.Len()
	binary.LittleEndian.PutUint64(u64[:], uint64(len(blobs)))
	head.Write(u64[:])
	for _, blob := range blobs {
		binary.LittleEndian.PutUint32(u32[:], uint32(len(blob)))
		head.Write(u32[:])
		binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(blob))
		head.Write(u32[:])
	}
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(head.Bytes()[dirStart:]))
	head.Write(u32[:])

	if _, err := w.Write(head.Bytes()); err != nil {
		return err
	}
	for _, blob := range blobs {
		if _, err := w.Write(blob); err != nil {
			return err
		}
	}
	return nil
}

// encodeMeta serializes the memory-resident metadata (everything but
// the pages) as one varint stream.
func encodeMeta(ix *postings.Index, aux *Aux) ([]byte, error) {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	putString := func(s string) {
		put(uint64(len(s)))
		buf.WriteString(s)
	}

	put(uint64(ix.NumDocs))
	put(uint64(ix.PageSize))
	put(uint64(len(ix.Terms)))
	for t := range ix.Terms {
		tm := &ix.Terms[t]
		putString(tm.Name)
		put(uint64(tm.DF))
		put(uint64(tm.FMax))
		put(uint64(tm.NumPages))
		for _, v := range ix.PageMinFreq(postings.TermID(t)) {
			put(uint64(v))
		}
		for _, v := range ix.PageMaxFreq(postings.TermID(t)) {
			put(uint64(v))
		}
	}
	for _, wd := range ix.DocLen {
		put(math.Float64bits(wd))
	}
	if aux == nil {
		put(0)
	} else {
		put(1)
		put(uint64(len(aux.DocNames)))
		for _, name := range aux.DocNames {
			putString(name)
		}
		put(uint64(len(aux.StopWords)))
		for _, word := range aux.StopWords {
			putString(word)
		}
	}
	return buf.Bytes(), nil
}

// checkPaging is the one layout rule of a page file, held by writer
// and loader alike: a term has df >= 1 entries on exactly the
// ceil(df/pageSize) pages postings.Paginate cuts them into.
func checkPaging(name string, df, numPages, pageSize uint64) error {
	if pageSize == 0 || df == 0 || numPages != (df-1)/pageSize+1 {
		return fmt.Errorf("indexfile: term %q has df=%d on %d pages of %d entries", name, df, numPages, pageSize)
	}
	return nil
}

// decodeMeta reconstructs the index metadata from an encodeMeta blob,
// refusing implausible counts before sizing any allocation by them.
func decodeMeta(data []byte) (*postings.Index, *Aux, error) {
	br := bytes.NewReader(data)
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	// A string is copied straight out of data: one allocation of its
	// own length, with no staging slice beside it.
	getString := func(maxLen uint64) (string, error) {
		n, err := get()
		if err != nil {
			return "", err
		}
		if n > maxLen {
			return "", fmt.Errorf("indexfile: string length %d implausible", n)
		}
		if n > uint64(br.Len()) {
			return "", io.ErrUnexpectedEOF
		}
		off := len(data) - br.Len()
		if _, err := br.Seek(int64(n), io.SeekCurrent); err != nil {
			return "", err
		}
		return string(data[off : off+int(n)]), nil
	}

	numDocs, err := get()
	if err != nil {
		return nil, nil, err
	}
	pageSize, err := get()
	if err != nil {
		return nil, nil, err
	}
	numTerms, err := get()
	if err != nil {
		return nil, nil, err
	}
	const sanity = 1 << 31
	if numDocs == 0 || numDocs > sanity || pageSize == 0 || pageSize > sanity || numTerms > sanity {
		return nil, nil, fmt.Errorf("indexfile: implausible header (%d docs, %d page size, %d terms)",
			numDocs, pageSize, numTerms)
	}
	// Every term costs at least four bytes of metadata, so a count
	// exceeding the blob length is a lie — refuse it before sizing any
	// allocation by it (counts are attacker-controlled: CRCs detect
	// corruption, not forgery).
	if numTerms > uint64(len(data)) {
		return nil, nil, fmt.Errorf("indexfile: %d terms in a %d-byte metadata blob", numTerms, len(data))
	}

	ix := &postings.Index{
		NumDocs:  int(numDocs),
		PageSize: int(pageSize),
		Terms:    make([]postings.TermMeta, numTerms),
		Vocab:    make(map[string]postings.TermID, numTerms),
	}
	// One term's bounds at a time; AppendBounds copies them into the
	// index's page arrays.
	var mins, maxs []int32
	for t := range ix.Terms {
		name, err := getString(4096)
		if err != nil {
			return nil, nil, err
		}
		df, err := get()
		if err != nil {
			return nil, nil, err
		}
		fmax, err := get()
		if err != nil {
			return nil, nil, err
		}
		numPages, err := get()
		if err != nil {
			return nil, nil, err
		}
		if err := checkPaging(name, df, numPages, pageSize); err != nil {
			return nil, nil, err
		}
		// Each page still owes two varints (min/max frequency), so the
		// remaining bytes bound the real page count.
		if numPages > uint64(br.Len()) {
			return nil, nil, fmt.Errorf("indexfile: term %q claims %d pages with %d metadata bytes left",
				name, numPages, br.Len())
		}
		tm := postings.TermMeta{
			Name: name,
			DF:   int(df),
			IDF:  postings.IDFValue(int(numDocs), int(df)),
			FMax: int32(fmax),
		}
		mins, maxs = mins[:0], maxs[:0]
		for i := uint64(0); i < numPages; i++ {
			v, err := get()
			if err != nil {
				return nil, nil, err
			}
			mins = append(mins, int32(v))
		}
		for i := uint64(0); i < numPages; i++ {
			v, err := get()
			if err != nil {
				return nil, nil, err
			}
			maxs = append(maxs, int32(v))
		}
		ix.AppendBounds(&tm, mins, maxs)
		if _, dup := ix.Vocab[tm.Name]; dup {
			return nil, nil, fmt.Errorf("indexfile: duplicate term %q", tm.Name)
		}
		ix.Vocab[tm.Name] = postings.TermID(t)
		ix.Terms[t] = tm
	}
	ix.DocLen = make([]float64, numDocs)
	for d := range ix.DocLen {
		bits, err := get()
		if err != nil {
			return nil, nil, err
		}
		ix.DocLen[d] = math.Float64frombits(bits)
	}

	var aux *Aux
	auxFlag, err := get()
	if err != nil {
		return nil, nil, err
	}
	switch auxFlag {
	case 0:
	case 1:
		aux = &Aux{}
		nNames, err := get()
		if err != nil {
			return nil, nil, err
		}
		if nNames > numDocs {
			return nil, nil, fmt.Errorf("indexfile: %d doc names for %d docs", nNames, numDocs)
		}
		for i := uint64(0); i < nNames; i++ {
			name, err := getString(1 << 16)
			if err != nil {
				return nil, nil, err
			}
			aux.DocNames = append(aux.DocNames, name)
		}
		nStop, err := get()
		if err != nil {
			return nil, nil, err
		}
		if nStop > 1<<20 {
			return nil, nil, fmt.Errorf("indexfile: %d stop-words implausible", nStop)
		}
		for i := uint64(0); i < nStop; i++ {
			word, err := getString(4096)
			if err != nil {
				return nil, nil, err
			}
			aux.StopWords = append(aux.StopWords, word)
		}
	default:
		return nil, nil, fmt.Errorf("indexfile: unknown aux flag %d", auxFlag)
	}
	if br.Len() != 0 {
		return nil, nil, fmt.Errorf("indexfile: %d trailing bytes after metadata", br.Len())
	}

	if err := ix.RebuildPageMaps(); err != nil {
		return nil, nil, err
	}
	return ix, aux, nil
}

// pageFileHeader is the parsed, verified header of a BUFIR3 file.
type pageFileHeader struct {
	ix        *postings.Index
	aux       *Aux
	dir       []pageDirEntry
	headerLen int64 // bytes consumed by the header; the data starts here
	dataLen   int64 // the data region's length: the sum of the page lengths
}

// readHeader parses and checksum-verifies the BUFIR3 header (meta +
// directory) from r, leaving r positioned at the start of the data
// region. It performs every structural validation that does not need
// the file size; the caller bounds the directory against the actual
// data region.
func readHeader(r io.Reader) (*pageFileHeader, error) {
	var fixed [16]byte
	n, err := io.ReadFull(r, fixed[:])
	if n < len(magic) || string(fixed[:len(magic)]) != magic {
		return nil, fmt.Errorf("indexfile: bad magic %q: %w", fixed[:min(n, len(magic))], ErrNotIndexFile)
	}
	if err != nil {
		return nil, fmt.Errorf("indexfile: reading header: %w", err)
	}
	if fixed[7] != 0 {
		return nil, fmt.Errorf("indexfile: unknown flags %#x", fixed[7])
	}
	metaLen := binary.LittleEndian.Uint64(fixed[8:16])
	const metaSanity = 1 << 32
	if metaLen == 0 || metaLen > metaSanity {
		return nil, fmt.Errorf("indexfile: implausible metadata length %d", metaLen)
	}
	// Grow the metadata buffer only as bytes actually arrive: metaLen
	// is attacker-controlled until its checksum verifies, and a lying
	// length must not allocate gigabytes against a tiny stream.
	var metaBuf bytes.Buffer
	if _, err := io.CopyN(&metaBuf, r, int64(metaLen)); err != nil {
		return nil, fmt.Errorf("indexfile: reading metadata: %w", err)
	}
	meta := metaBuf.Bytes()
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("indexfile: reading metadata checksum: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(fixed[:])
	crc.Write(meta)
	if got := binary.LittleEndian.Uint32(sum[:]); got != crc.Sum32() {
		return nil, fmt.Errorf("indexfile: metadata checksum mismatch (file %08x, computed %08x)", got, crc.Sum32())
	}
	ix, aux, err := decodeMeta(meta)
	if err != nil {
		return nil, err
	}

	var npBuf [8]byte
	if _, err := io.ReadFull(r, npBuf[:]); err != nil {
		return nil, fmt.Errorf("indexfile: reading page count: %w", err)
	}
	numPages := binary.LittleEndian.Uint64(npBuf[:])
	if numPages != uint64(ix.NumPagesTotal) {
		return nil, fmt.Errorf("indexfile: page count %d does not match term layout %d", numPages, ix.NumPagesTotal)
	}
	dirBytes := make([]byte, numPages*pageDirEntrySize)
	if _, err := io.ReadFull(r, dirBytes); err != nil {
		return nil, fmt.Errorf("indexfile: reading page directory: %w", err)
	}
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("indexfile: reading directory checksum: %w", err)
	}
	crc = crc32.NewIEEE()
	crc.Write(npBuf[:])
	crc.Write(dirBytes)
	if got := binary.LittleEndian.Uint32(sum[:]); got != crc.Sum32() {
		return nil, fmt.Errorf("indexfile: directory checksum mismatch (file %08x, computed %08x)", got, crc.Sum32())
	}

	// Decode the directory, check every length is positive and
	// plausible for the page size, and lay the pages out back to back
	// from the end of the header. The bound is computed in 64 bits: an
	// index may declare any page size up to the metadata's sanity
	// bound, and a 32-bit product would wrap.
	dir := make([]pageDirEntry, numPages)
	maxBlob := min(uint64(ix.PageSize)*12+64, math.MaxUint32)
	headerLen := uint64(len(fixed)) + metaLen + 4 + 8 + uint64(len(dirBytes)) + 4
	off := headerLen
	for i := range dir {
		b := dirBytes[i*pageDirEntrySize:]
		e := pageDirEntry{
			off: off,
			len: binary.LittleEndian.Uint32(b),
			crc: binary.LittleEndian.Uint32(b[4:]),
		}
		if e.len == 0 || uint64(e.len) > maxBlob {
			return nil, fmt.Errorf("indexfile: page %d implausible size %d", i, e.len)
		}
		off += uint64(e.len)
		dir[i] = e
	}
	return &pageFileHeader{
		ix:        ix,
		aux:       aux,
		dir:       dir,
		headerLen: int64(headerLen),
		dataLen:   int64(off - headerLen),
	}, nil
}

// PageFileOptions configures OpenPageFile.
type PageFileOptions struct {
	// DisableMmap forces the ReadAt access path even on platforms
	// where memory mapping is available.
	DisableMmap bool
}

// PageFile is an open paged index file: the metadata and page
// directory held in memory, the page blobs served on demand from an
// mmap'd view of the file when the platform supports it, and from
// pread-style ReadAt calls otherwise.
//
// PageBlob is safe for any degree of concurrency. Close is not
// synchronized with in-flight reads; quiesce readers first.
type PageFile struct {
	// Index is the reconstructed memory-resident metadata.
	Index *postings.Index
	// Aux carries the optional text-pipeline state (nil when absent).
	Aux *Aux

	dir []pageDirEntry
	f   *os.File
	mm  []byte // whole-file mapping; nil on the ReadAt path
}

// OpenPageFile opens a file written by WritePageFile, verifying the
// header checksums and directory geometry. Page blobs are not read
// (or verified) until requested.
func OpenPageFile(path string, opts PageFileOptions) (*PageFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	pf, err := newPageFile(f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return pf, nil
}

func newPageFile(f *os.File, opts PageFileOptions) (*PageFile, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	h, err := readHeader(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	if st.Size() < h.headerLen+h.dataLen {
		return nil, fmt.Errorf("indexfile: file is %d bytes, directory needs %d (truncated?)",
			st.Size(), h.headerLen+h.dataLen)
	}
	pf := &PageFile{Index: h.ix, Aux: h.aux, dir: h.dir, f: f}
	if !opts.DisableMmap && mmapSupported {
		if mm, err := mmapFile(f, st.Size()); err == nil {
			pf.mm = mm
		}
		// An mmap failure is not fatal: ReadAt serves the same bytes.
	}
	return pf, nil
}

// NumPages returns the number of pages in the file.
func (p *PageFile) NumPages() int { return len(p.dir) }

// Mapped reports whether pages are served from a memory mapping
// (false: the ReadAt fallback path).
func (p *PageFile) Mapped() bool { return p.mm != nil }

// EncodedBytes returns the total size of all page blobs — the
// compressed footprint the directory describes, and the file's size
// less its header.
func (p *PageFile) EncodedBytes() int64 {
	var n int64
	for _, e := range p.dir {
		n += int64(e.len)
	}
	return n
}

// PageBlob returns page id's encoded blob, checksum-verified against
// the directory. On the mmap path the returned slice aliases the
// mapping — treat it as immutable and do not use it after Close. On
// the ReadAt path the blob is read into buf (grown as needed; pass nil
// to allocate), so callers can reuse one staging buffer across reads.
func (p *PageFile) PageBlob(id int, buf []byte) ([]byte, error) {
	if id < 0 || id >= len(p.dir) {
		return nil, fmt.Errorf("indexfile: page %d out of range [0,%d)", id, len(p.dir))
	}
	e := p.dir[id]
	var blob []byte
	if p.mm != nil {
		end := e.off + uint64(e.len)
		blob = p.mm[e.off:end:end]
	} else {
		if cap(buf) < int(e.len) {
			buf = make([]byte, e.len)
		}
		blob = buf[:e.len]
		if _, err := p.f.ReadAt(blob, int64(e.off)); err != nil {
			return nil, fmt.Errorf("indexfile: page %d: %w", id, err)
		}
	}
	if crc32.ChecksumIEEE(blob) != e.crc {
		return nil, &CorruptPageError{Page: id}
	}
	return blob, nil
}

// Close unmaps and closes the file. Do not call with reads in flight;
// blobs returned by the mmap path are invalid afterwards.
func (p *PageFile) Close() error {
	var errs []error
	if p.mm != nil {
		if err := munmapFile(p.mm); err != nil {
			errs = append(errs, err)
		}
		p.mm = nil
	}
	if p.f != nil {
		if err := p.f.Close(); err != nil {
			errs = append(errs, err)
		}
		p.f = nil
	}
	return errors.Join(errs...)
}
