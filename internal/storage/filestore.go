package storage

// FileStore is the real disk behind the PageStore interface: where
// Store simulates page reads against in-memory slices, a FileStore
// serves every read from an actual index file —
// an mmap'd view when the platform supports it (a cold page costs a
// real page fault), or pread-style ReadAt calls otherwise. This is
// the backend that lets the paper's central cost model (buffer misses
// ≈ disk I/O, §3) finally be measured against hardware instead of a
// counter.
//
// Read semantics follow the PageStore contract exactly (the storetest
// conformance suite holds both backends to it): Reads() counts
// delivered pages only, a dead context fails before any I/O or decode
// work, and ReadQuiet bypasses the counters. A page is delivered only
// if the index can hold it: besides a checksum mismatch, a blob that
// does not decode, a document id outside [0, NumDocs) and an entry
// count the term metadata does not allow are rejected as
// indexfile.CorruptPageError — the evaluator indexes per-document
// arrays by those ids. Every read decodes afresh, so the entries it
// returns belong to the caller: ReadContext and ReadQuiet allocate
// them, and ReadInto (IntoReader) decodes into a slice the caller
// hands back — the buffer manager passes the entries of the frame a
// miss evicts, so a steady-state miss allocates no entries at all.
// The ReadAt staging buffer is reused too (per-store sync.Pool).

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"bufir/internal/codec"
	"bufir/internal/indexfile"
	"bufir/internal/postings"
)

// FileStore serves block-compressed pages from an on-disk index file
// (see indexfile.WritePageFile). It is safe for any degree of
// concurrency; Close is not synchronized with in-flight reads.
type FileStore struct {
	pf *indexfile.PageFile

	reads          atomic.Int64
	decodedEntries atomic.Int64

	// bufs pools the ReadAt staging buffers; the mmap path takes none,
	// its blobs are zero-copy views of the mapping.
	bufs sync.Pool
}

var (
	_ PageStore  = (*FileStore)(nil)
	_ IntoReader = (*FileStore)(nil)
)

// NewFileStore wraps an open paged index file. The store takes
// ownership: Close closes the file.
func NewFileStore(pf *indexfile.PageFile) *FileStore {
	return &FileStore{
		pf:   pf,
		bufs: sync.Pool{New: func() any { return new([]byte) }},
	}
}

// OpenFileStore opens a paged index file (indexfile.WritePageFile) and
// returns a store serving pages from it.
func OpenFileStore(path string, opts indexfile.PageFileOptions) (*FileStore, error) {
	pf, err := indexfile.OpenPageFile(path, opts)
	if err != nil {
		return nil, err
	}
	return NewFileStore(pf), nil
}

// File exposes the underlying page file (metadata, aux data, mapping
// state) for callers that opened the store with OpenFileStore.
func (s *FileStore) File() *indexfile.PageFile { return s.pf }

// NumPages returns the number of pages in the file.
func (s *FileStore) NumPages() int { return s.pf.NumPages() }

// Mapped reports whether pages are served from a memory mapping
// (false: the ReadAt fallback).
func (s *FileStore) Mapped() bool { return s.pf.Mapped() }

// ReadContext fetches and decodes a page into a fresh slice, counting
// the read: ReadInto with no slice to reuse.
func (s *FileStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	entries, _, err := s.ReadInto(ctx, id, nil)
	return entries, err
}

// ReadInto fetches and decodes a page, counting the read, into dst's
// backing array when it holds the page and into a fresh slice
// otherwise; the entries are always owned by the caller (IntoReader).
// An already-dead context fails before any file I/O or decompression
// is spent on the page. Reads that fail — context, I/O error, corrupt
// blob — are not counted; Reads() means pages actually delivered.
func (s *FileStore) ReadInto(ctx context.Context, id postings.PageID, dst []postings.Entry) ([]postings.Entry, bool, error) {
	if int(id) < 0 || int(id) >= s.pf.NumPages() {
		return nil, false, fmt.Errorf("storage: page %d out of range [0,%d)", id, s.pf.NumPages())
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	entries, err := s.decodePage(id, dst)
	if err != nil {
		return nil, false, err
	}
	s.reads.Add(1)
	s.decodedEntries.Add(int64(len(entries)))
	return entries, true, nil
}

// ReadQuiet fetches and decodes a page into a fresh slice without
// touching the counters (the offline workload-construction path).
func (s *FileStore) ReadQuiet(id postings.PageID) ([]postings.Entry, error) {
	if int(id) < 0 || int(id) >= s.pf.NumPages() {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d)", id, s.pf.NumPages())
	}
	return s.decodePage(id, nil)
}

// decodePage reads page id's blob (zero-copy from the mapping, or via
// a pooled staging buffer on the ReadAt path) and decodes it into
// dst's backing array if its capacity holds the entries the term
// metadata promises, else into a fresh slice of exactly that capacity,
// so the decode costs at most one allocation. Corrupt blobs surface as
// a permanent fault (indexfile.CorruptPageError), so the buffer
// manager's retry path does not burn its budget rereading bytes that
// cannot heal.
func (s *FileStore) decodePage(id postings.PageID, dst []postings.Entry) ([]postings.Entry, error) {
	var blob []byte
	var err error
	if s.pf.Mapped() {
		blob, err = s.pf.PageBlob(int(id), nil)
	} else {
		bp := s.bufs.Get().(*[]byte)
		defer s.bufs.Put(bp)
		blob, err = s.pf.PageBlob(int(id), *bp)
		if err == nil {
			*bp = blob // keep the (possibly grown) staging buffer
		}
	}
	if err != nil {
		return nil, fmt.Errorf("storage: page %d: %w", id, err)
	}
	ix := s.pf.Index
	tm := &ix.Terms[ix.TermOfPage(id)]
	i := int(ix.PageOffset(id))
	want := tm.PageEntries(i, ix.PageSize)
	// An entry takes at least a byte, so the blob bounds what the
	// file's metadata may ask for.
	if n := min(want, len(blob)); cap(dst) < n {
		dst = make([]postings.Entry, 0, n)
	}
	entries, err := codec.DecodePage(blob, dst)
	if err == nil {
		err = checkPage(entries, want, ix.NumDocs)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: page %d: %w", id, &indexfile.CorruptPageError{Page: int(id), Reason: err.Error()})
	}
	return entries, nil
}

// checkPage reports why a decoded page does not fit the index, or nil.
// A page holds exactly want entries, the term's PageEntries: the loader
// holds every term to ceil(DF/PageSize) pages, so every page but a
// list's last is full and the last holds what DF leaves.
func checkPage(entries []postings.Entry, want, numDocs int) error {
	if n := len(entries); n != want {
		return fmt.Errorf("%d entries, the term metadata says %d", n, want)
	}
	for _, e := range entries {
		if e.Doc < 0 || int(e.Doc) >= numDocs {
			return fmt.Errorf("document %d outside [0,%d)", e.Doc, numDocs)
		}
	}
	return nil
}

// Reads returns the cumulative delivered-page count.
func (s *FileStore) Reads() int64 { return s.reads.Load() }

// DecodedEntries returns the cumulative entries decompressed — the
// CPU-cost proxy the paper ties to disk reads.
func (s *FileStore) DecodedEntries() int64 { return s.decodedEntries.Load() }

// ResetReads zeroes the counters.
func (s *FileStore) ResetReads() {
	s.reads.Store(0)
	s.decodedEntries.Store(0)
}

// CompressionStats reports the on-disk compression the page directory
// describes, against the paper's 6-byte-per-entry raw baseline.
func (s *FileStore) CompressionStats() codec.Stats {
	entries := 0
	for t := range s.pf.Index.Terms {
		entries += s.pf.Index.Terms[t].DF
	}
	return codec.Stats{
		Entries:      entries,
		EncodedBytes: int(s.pf.EncodedBytes()),
		RawBytes:     6 * entries,
	}
}

// Close unmaps and closes the index file. Do not call with reads in
// flight.
func (s *FileStore) Close() error { return s.pf.Close() }
