package storage

import (
	"context"
	"fmt"
	"sync/atomic"

	"bufir/internal/codec"
	"bufir/internal/postings"
)

// CompressedStore is a paged store that keeps its pages in the
// compressed [PZSD96] format and decompresses on every read — the
// physical organization the paper assumes (§4.2; it also attributes
// most of the CPU cost of retrieval to "decompression of index data",
// which the DecodedEntries counter models). It implements the same
// read interface as Store, so the buffer manager is oblivious to the
// page representation; decoded pages live in the buffer pool, encoded
// pages on "disk".
type CompressedStore struct {
	// pages is immutable after construction; reads are lock-free.
	pages [][]byte
	// entries[i] is how many entries page i decodes to, so a read
	// allocates its result once instead of growing it.
	entries []int32
	stats   codec.Stats

	reads          atomic.Int64
	decodedEntries atomic.Int64
}

// NewCompressedStore encodes the page payloads and returns the store.
func NewCompressedStore(pages [][]postings.Entry) (*CompressedStore, error) {
	enc, st, err := codec.EncodePages(pages)
	if err != nil {
		return nil, err
	}
	entries := make([]int32, len(pages))
	for i, p := range pages {
		entries[i] = int32(len(p))
	}
	return &CompressedStore{pages: enc, entries: entries, stats: st}, nil
}

// NumPages returns the number of pages.
func (s *CompressedStore) NumPages() int { return len(s.pages) }

// ReadContext fetches and decompresses a page, counting both the page
// read and the entries decoded; an already-dead context fails before
// any decompression work is spent on the page.
func (s *CompressedStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	if int(id) < 0 || int(id) >= len(s.pages) {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d)", id, len(s.pages))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := codec.DecodePage(s.pages[id], make([]postings.Entry, 0, s.entries[id]))
	if err != nil {
		return nil, fmt.Errorf("storage: page %d: %w", id, err)
	}
	s.reads.Add(1)
	s.decodedEntries.Add(int64(len(entries)))
	return entries, nil
}

// ReadQuiet decompresses a page without touching the counters (the
// offline workload-construction path).
func (s *CompressedStore) ReadQuiet(id postings.PageID) ([]postings.Entry, error) {
	if int(id) < 0 || int(id) >= len(s.pages) {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d)", id, len(s.pages))
	}
	entries, err := codec.DecodePage(s.pages[id], make([]postings.Entry, 0, s.entries[id]))
	if err != nil {
		return nil, fmt.Errorf("storage: page %d: %w", id, err)
	}
	return entries, nil
}

// Reads returns the cumulative page reads.
func (s *CompressedStore) Reads() int64 { return s.reads.Load() }

// DecodedEntries returns the cumulative entries decompressed — the
// CPU-cost proxy the paper ties to disk reads.
func (s *CompressedStore) DecodedEntries() int64 { return s.decodedEntries.Load() }

// ResetReads zeroes the counters.
func (s *CompressedStore) ResetReads() {
	s.reads.Store(0)
	s.decodedEntries.Store(0)
}

// CompressionStats reports the achieved compression.
func (s *CompressedStore) CompressionStats() codec.Stats { return s.stats }
