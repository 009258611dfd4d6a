// Package storage implements the simulated disk underneath the buffer
// manager. The paper's performance study runs on a simulator whose
// observable cost metric is the number of page reads (§4.1); this
// store holds the inverted-list pages in memory and counts every read
// issued against it. All query-time access goes through the buffer
// manager, so the read counter is exactly the paper's "disk reads".
//
// A read of the simulated disk takes no wall time of its own. The one
// layer that slows or fails a read is FaultStore: a latency rule with
// no selector (`latency:spike=d`) gives every read the cost d.
package storage

import (
	"context"
	"fmt"
	"sync/atomic"

	"bufir/internal/postings"
)

// PageStore is the pluggable backend contract of the paged disk:
// counted reads for query execution, quiet reads for offline workload
// construction, and read accounting. Three implementations exist — the
// in-memory simulator (Store), which also serves every live commit's
// and merge's pages, the real file-backed FileStore serving compressed
// pages, and the fault-injection wrapper (FaultStore), which composes
// over either of the others and is the only layer that slows or fails
// a read.
//
// The contract every implementation (and the storetest conformance
// suite) holds to:
//
//   - ReadContext returns the page's entries, frequency-sorted exactly
//     as postings.Build produced them; the slice must be treated as
//     immutable by callers, and remains valid after subsequent reads.
//     (A store that decodes pages may also offer IntoReader, whose
//     reads hand the caller a slice it owns instead.)
//   - Reads() counts DELIVERED pages only. A read refused by a dead
//     context, failed by an injected or real I/O error, or rejected as
//     out of range moves no counter, so "store reads" keeps meaning
//     the paper's cost metric — pages that actually arrived — under
//     cancellation and chaos alike.
//   - An already-dead context fails with ctx.Err() before any disk or
//     decode work (and before fault injection: a canceled request must
//     not consume fault-schedule ordinals).
//   - ReadQuiet bypasses counters and fault injection (latency rules
//     included) entirely (the paper's offline paths).
//   - All methods are safe for any degree of concurrency.
type PageStore interface {
	ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error)
	ReadQuiet(id postings.PageID) ([]postings.Entry, error)
	Reads() int64
	ResetReads()
	NumPages() int
}

// IntoReader is the optional read of a store that can decode a page
// into memory the caller hands over: FileStore offers it, and so does
// FaultStore over any store, forwarding to its inner store's ReadInto
// or, when there is none, to its ReadContext. ReadInto is ReadContext —
// same entries, same checks, same delivered-only accounting — except
// that it may decode into dst's backing array when that array is large
// enough (a dst of any length or contents will do; it is overwritten),
// and it reports whether the returned slice is owned. An owned slice is
// the caller's alone — the store keeps no reference to it — so the
// caller may pass it back as a later read's dst. An unowned slice is
// shared store memory under PageStore's contract — immutable, valid
// after later reads — and must never be recycled; a store that serves
// shared pages leaves dst unused and reports owned false. On error
// dst's contents are undefined.
type IntoReader interface {
	ReadInto(ctx context.Context, id postings.PageID, dst []postings.Entry) (entries []postings.Entry, owned bool, err error)
}

// Store is a paged read-only store of inverted-list pages, indexed by
// PageID. The page slice is immutable after construction, so reads
// take no lock at all — the store is safe for any degree of
// concurrency and never convoys the buffer manager's shards.
type Store struct {
	pages [][]postings.Entry
	reads atomic.Int64
}

// ErrInjectedFault is what every fault injected by a FaultStore
// matches under errors.Is (see FaultError).
var ErrInjectedFault = fmt.Errorf("storage: injected read fault")

var _ PageStore = (*Store)(nil)

// NewStore creates a store over the given page payloads (indexed by
// PageID, as produced by postings.Build).
func NewStore(pages [][]postings.Entry) *Store {
	return &Store{pages: pages}
}

// NumPages returns the number of pages in the store.
func (s *Store) NumPages() int { return len(s.pages) }

// ReadContext fetches a page, incrementing the disk-read counter; the
// returned slice must be treated as immutable. An already-dead context
// fails before touching the disk at all, uncounted, so read totals keep
// meaning "pages actually delivered" — the paper's cost metric — under
// any amount of cancellation.
func (s *Store) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	if int(id) < 0 || int(id) >= len(s.pages) {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d)", id, len(s.pages))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.reads.Add(1)
	return s.pages[id], nil
}

// ReadQuiet fetches a page without touching the disk-read counter. It exists for workload construction
// (term-contribution ranking) and index maintenance, which the paper
// performs offline and does not charge to query execution.
func (s *Store) ReadQuiet(id postings.PageID) ([]postings.Entry, error) {
	if int(id) < 0 || int(id) >= len(s.pages) {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d)", id, len(s.pages))
	}
	return s.pages[id], nil
}

// Reads returns the cumulative number of counted page reads.
func (s *Store) Reads() int64 { return s.reads.Load() }

// ResetReads zeroes the read counter (used between experiment runs).
func (s *Store) ResetReads() { s.reads.Store(0) }
