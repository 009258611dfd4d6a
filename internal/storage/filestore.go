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
// arrays by those ids. Entries returned by a
// read are freshly decoded per call — the buffer manager retains them
// in frames until eviction with no release hook, so decoded pages
// cannot be pooled; what IS reused is the ReadAt staging buffer
// (per-store sync.Pool), making the steady-state allocation cost one
// entries slice per miss on either access path.

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

	// bufs pools the ReadAt staging buffers (unused but harmless on
	// the mmap path, where blobs are zero-copy views of the mapping).
	bufs sync.Pool
}

var _ PageStore = (*FileStore)(nil)

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

// ReadContext fetches and decodes a page, counting the read; an
// already-dead context fails before any file I/O or decompression is
// spent on the page.
// Reads that fail — context, I/O error, corrupt blob — are not
// counted; Reads() means pages actually delivered.
func (s *FileStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	if int(id) < 0 || int(id) >= s.pf.NumPages() {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d)", id, s.pf.NumPages())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := s.decodePage(id)
	if err != nil {
		return nil, err
	}
	s.reads.Add(1)
	s.decodedEntries.Add(int64(len(entries)))
	return entries, nil
}

// ReadQuiet fetches and decodes a page without touching the counters
// (the offline workload-construction path).
func (s *FileStore) ReadQuiet(id postings.PageID) ([]postings.Entry, error) {
	if int(id) < 0 || int(id) >= s.pf.NumPages() {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d)", id, s.pf.NumPages())
	}
	return s.decodePage(id)
}

// decodePage reads page id's blob (zero-copy from the mapping, or via
// a pooled staging buffer on the ReadAt path) and decodes it into a
// fresh entries slice, sized from the term metadata so the decode
// costs one allocation. Corrupt blobs surface as a permanent fault
// (indexfile.CorruptPageError), so the buffer manager's retry path
// does not burn its budget rereading bytes that cannot heal.
func (s *FileStore) decodePage(id postings.PageID) ([]postings.Entry, error) {
	bp := s.bufs.Get().(*[]byte)
	blob, err := s.pf.PageBlob(int(id), *bp)
	if err != nil {
		s.bufs.Put(bp)
		return nil, fmt.Errorf("storage: page %d: %w", id, err)
	}
	if !s.pf.Mapped() {
		*bp = blob // keep the (possibly grown) staging buffer
	}
	ix := s.pf.Index
	tm := &ix.Terms[ix.TermOfPage(id)]
	i := int(ix.PageOffset(id))
	want := tm.PageEntries(i, ix.PageSize)
	// An entry takes at least a byte, so the blob bounds what the
	// file's metadata may ask for.
	entries, err := codec.DecodePage(blob, make([]postings.Entry, 0, min(want, len(blob))))
	s.bufs.Put(bp)
	if err == nil {
		err = checkPage(entries, want, i == tm.NumPages-1, ix.NumDocs)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: page %d: %w", id, &indexfile.CorruptPageError{Page: int(id), Reason: err.Error()})
	}
	return entries, nil
}

// checkPage reports why a decoded page does not fit the index, or nil.
// A page holds want entries — the term's PageEntries — except that a
// list's last page may hold fewer: a shard partition's terms carry the
// collection's DF, so there want is only an upper bound.
func checkPage(entries []postings.Entry, want int, last bool, numDocs int) error {
	if n := len(entries); n > want || n < want && !last {
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
