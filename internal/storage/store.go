// Package storage implements the simulated disk underneath the buffer
// manager. The paper's performance study runs on a simulator whose
// observable cost metric is the number of page reads (§4.1); this
// store holds the inverted-list pages in memory and counts every read
// issued against it. All query-time access goes through the buffer
// manager, so the read counter is exactly the paper's "disk reads".
package storage

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"bufir/internal/postings"
)

// PageStore is the pluggable backend contract of the paged disk:
// counted reads for query execution, quiet reads for offline workload
// construction, and read accounting. Three implementations exist — the
// in-memory simulator (Store), the real file-backed FileStore serving
// compressed pages, and the fault-injection wrapper (FaultStore),
// which composes over either of the others.
//
// The contract every implementation (and the storetest conformance
// suite) holds to:
//
//   - ReadContext returns the page's entries, frequency-sorted exactly
//     as postings.Build produced them; the slice must be treated as
//     immutable by callers, and remains valid after subsequent reads.
//   - Reads() counts DELIVERED pages only. A read refused by a dead
//     context, failed by an injected or real I/O error, or rejected as
//     out of range moves no counter, so "store reads" keeps meaning
//     the paper's cost metric — pages that actually arrived — under
//     cancellation and chaos alike.
//   - An already-dead context fails with ctx.Err() before any disk or
//     decode work (and before fault injection: a canceled request must
//     not consume fault-schedule ordinals).
//   - ReadQuiet bypasses counters, simulated latency and fault
//     injection entirely (the paper's offline paths).
//   - All methods are safe for any degree of concurrency.
type PageStore interface {
	ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error)
	ReadQuiet(id postings.PageID) ([]postings.Entry, error)
	Reads() int64
	ResetReads()
	NumPages() int
}

// Store is a paged read-only store of inverted-list pages, indexed by
// PageID. The page slice is immutable after construction, so reads
// take no lock at all — the store is safe for any degree of
// concurrency and never convoys the buffer manager's shards.
type Store struct {
	pages [][]postings.Entry
	reads atomic.Int64

	// latencyNanos, when positive, makes every counted read sleep that
	// long — the wall-clock realization of the paper's disk cost model
	// (§4.1; metrics.CostModel charges time per page read). Concurrency
	// experiments use it so worker pools have real I/O waits to
	// overlap; it is zero (off) everywhere else, leaving read counts
	// and test runtimes untouched.
	latencyNanos atomic.Int64
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
// returned slice must be treated as immutable. A read that would sleep
// on the simulated disk latency returns ctx.Err() as soon as the
// context is canceled or expires, and an already-dead context fails
// before touching the disk at all. Reads abandoned this way are not counted,
// so read totals keep meaning "pages actually delivered" — the paper's
// cost metric — under any amount of cancellation.
func (s *Store) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	if int(id) < 0 || int(id) >= len(s.pages) {
		return nil, fmt.Errorf("storage: page %d out of range [0,%d)", id, len(s.pages))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d := s.latencyNanos.Load(); d > 0 {
		if done := ctx.Done(); done != nil {
			timer := time.NewTimer(time.Duration(d))
			select {
			case <-timer.C:
			case <-done:
				timer.Stop()
				return nil, ctx.Err()
			}
		} else {
			time.Sleep(time.Duration(d))
		}
	}
	s.reads.Add(1)
	return s.pages[id], nil
}

// ReadQuiet fetches a page without touching the disk-read counter or
// the simulated latency. It exists for workload construction
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

// SetReadLatency makes every counted read block for d of wall-clock
// time, simulating the disk the paper's cost model charges for;
// d <= 0 disables the simulation. Read counts are unaffected.
func (s *Store) SetReadLatency(d time.Duration) {
	s.latencyNanos.Store(int64(d))
}
