package livedex

import (
	"context"
	"fmt"
	"sync/atomic"

	"bufir/internal/postings"
	"bufir/internal/storage"
)

// Overlay is the delta-overlay page store: a storage.PageStore over
// the combined virtual page space of one committed epoch. Every page a
// query reads through it is exactly the page postings.Build would have
// written for the merged corpus:
//
//   - a page of an untouched term passes straight through to its main
//     generation page (read quietly off the inner store, so the inner
//     counters keep meaning "main generation reads");
//   - a page of a touched term is synthesized on demand by merging its
//     main-entry run, a slice of the memory-resident main list, with
//     its delta-entry run.
//
// Accounting follows the PageStore contract at the virtual level:
// Reads() counts delivered combined pages — the paper's cost metric
// over the combined layout. An Overlay takes no wall time of its own;
// a storage.FaultStore over it slows or fails its reads.
//
// An Overlay is immutable after construction and safe for any degree
// of concurrency; later AddDoc/Commit calls on the State publish new
// Overlays rather than mutating this one.
type Overlay struct {
	inner storage.PageStore
	desc  []PageDesc
	main  [][]postings.Entry
	delta [][]postings.Entry

	reads atomic.Int64
}

var _ storage.PageStore = (*Overlay)(nil)

// NewOverlay builds the overlay for one commit over the main
// generation's physical store. The second argument, the main
// generation's metadata, goes unread: the commit carries every main run
// a merged page needs.
func NewOverlay(c *Combined, _ *postings.Index, inner storage.PageStore) *Overlay {
	return &Overlay{
		inner: inner,
		desc:  c.Desc,
		main:  c.main,
		delta: c.DeltaFrozen,
	}
}

// NumPages returns the combined page count.
func (o *Overlay) NumPages() int { return len(o.desc) }

// Reads returns how many combined pages were delivered.
func (o *Overlay) Reads() int64 { return o.reads.Load() }

// ResetReads zeroes the delivered-page counter.
func (o *Overlay) ResetReads() { o.reads.Store(0) }

// ReadContext fetches a combined page, counting the delivery: an
// already-dead context fails before any synthesis work. Only delivered
// pages move the counter.
func (o *Overlay) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	page, err := o.ReadQuiet(id)
	if err != nil {
		return nil, err
	}
	o.reads.Add(1)
	return page, nil
}

// ReadQuiet synthesizes a combined page without counting it (the
// offline paths: workload construction, merge materialization,
// persistence).
func (o *Overlay) ReadQuiet(id postings.PageID) ([]postings.Entry, error) {
	if int(id) < 0 || int(id) >= len(o.desc) {
		return nil, fmt.Errorf("livedex: page %d out of range [0,%d)", id, len(o.desc))
	}
	d := o.desc[id]
	if !d.Merged {
		return o.inner.ReadQuiet(d.Main)
	}
	// A term new since the main generation has no main list and an
	// empty main run.
	var main []postings.Entry
	if int(d.Term) < len(o.main) {
		main = o.main[d.Term][d.MainLo:d.MainHi]
	}
	dl := o.delta[d.Term][d.DeltaLo:d.DeltaHi]
	return mergeLists(make([]postings.Entry, 0, len(main)+len(dl)), main, dl), nil
}
