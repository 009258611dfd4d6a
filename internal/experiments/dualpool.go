package experiments

import (
	"context"
	"fmt"

	"bufir/internal/buffer"
	"bufir/internal/postings"
)

// DualPool implements the dual-buffering idea of Kemper & Kossmann
// [KK94] that footnote 9 points at: short inverted lists (single-page
// terms, the long tail of the vocabulary) are buffered in their own
// partition so that scans of long lists cannot flood them out. Each
// partition is a buffer manager of its own, with its own replacement
// policy over its own capacity; the pool routes every page by its
// term's list length.
//
// In the paper's words: "In workloads where such [short-list] terms
// are frequently accessed, techniques such as dual buffering would be
// appropriate."
type DualPool struct {
	short, long *buffer.Manager
	ix          *postings.Index
	// threshold: lists with at most this many pages use the short
	// partition.
	threshold int
}

var _ buffer.Pool = (*DualPool)(nil)

// NewDualPool creates a partitioned pool: shortPages frames for terms
// whose lists have at most thresholdPages pages (policy LRU — they
// are tiny and hot), longPages frames for the rest under the given
// policy.
func NewDualPool(shortPages, longPages, thresholdPages int, store buffer.PageReader, ix *postings.Index, longPolicy buffer.Policy) (*DualPool, error) {
	if thresholdPages < 1 {
		return nil, fmt.Errorf("experiments: dual-pool threshold %d < 1", thresholdPages)
	}
	short, err := serialPool(shortPages, store, ix, buffer.NewLRU())
	if err != nil {
		return nil, fmt.Errorf("experiments: short partition: %w", err)
	}
	long, err := serialPool(longPages, store, ix, longPolicy)
	if err != nil {
		return nil, fmt.Errorf("experiments: long partition: %w", err)
	}
	return &DualPool{short: short, long: long, ix: ix, threshold: thresholdPages}, nil
}

// partitionFor routes a term to its partition.
func (d *DualPool) partitionFor(t postings.TermID) *buffer.Manager {
	if d.ix.Terms[t].NumPages <= d.threshold {
		return d.short
	}
	return d.long
}

// FetchContext implements buffer.Pool.
func (d *DualPool) FetchContext(ctx context.Context, id postings.PageID) (*buffer.Frame, bool, error) {
	return d.partitionFor(d.ix.TermOfPage(id)).FetchContext(ctx, id)
}

// Unpin implements buffer.Pool.
func (d *DualPool) Unpin(f *buffer.Frame) {
	d.partitionFor(f.Term).Unpin(f)
}

// ResidentPages implements buffer.Pool.
func (d *DualPool) ResidentPages(t postings.TermID) int {
	return d.partitionFor(t).ResidentPages(t)
}

// SetQuery implements buffer.Pool (both partitions see the query).
func (d *DualPool) SetQuery(w buffer.QueryWeights) {
	d.short.SetQuery(w)
	d.long.SetQuery(w)
}

// Stats implements buffer.Pool (summed over partitions).
func (d *DualPool) Stats() buffer.Stats {
	a, b := d.PartitionStats()
	return buffer.Stats{
		Hits:      a.Hits + b.Hits,
		Misses:    a.Misses + b.Misses,
		Evictions: a.Evictions + b.Evictions,
	}
}

// PartitionStats returns (short, long) counters for analysis.
func (d *DualPool) PartitionStats() (buffer.Stats, buffer.Stats) {
	return d.short.Stats(), d.long.Stats()
}
