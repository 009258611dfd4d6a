// Package shard implements document partitioning of the inverted
// index: a stable docid → partition assignment and an index splitter
// that turns one frequency-sorted index into N per-partition indexes
// servable by independent engines behind a scatter-gather router.
//
// The design choice that makes merged results exact: shard indexes
// keep the GLOBAL collection statistics. Every shard carries the
// global NumDocs, the global per-term DF/IDF/FMax, and shares the
// global document-length vector; only the physical page layout
// (FirstPage, NumPages, page min/max frequencies) is local to the
// shard's subset of postings. A document's entries all live in exactly
// one shard (assignment is by docid), so its accumulator is built from
// the same (f_dt, idf_t, f_qt) products — in the same decreasing-idf
// term order — as a single-index evaluation, and its normalized score
// is bit-identical. Under safe (unfiltered) evaluation the global
// top-k therefore equals the merge of per-shard top-k's; under
// filtered DF/BAF each shard's S_max is a lower bound of the global
// one, so shards filter no more aggressively than the single index —
// per-shard answers remain legal §2.2 anytime rankings.
package shard

import (
	"fmt"
	"hash/fnv"

	"bufir/internal/postings"
)

// ForDoc returns the partition of doc among n document partitions.
// The assignment is a stable hash of the docid (FNV-1a over its
// little-endian bytes, mod n) — the shardmapping discipline of
// document-partitioned search systems: it never changes for a given
// (doc, n), spreads consecutive docids evenly, and needs no mapping
// table. n must be >= 1.
func ForDoc(doc postings.DocID, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	v := uint32(doc)
	h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	return int(h.Sum32() % uint32(n))
}

// Partition is one document partition: an index over the shard's
// postings (global statistics, local page layout) plus the shard's
// page payloads, indexed by the shard-local PageID.
type Partition struct {
	Index *postings.Index
	Pages [][]postings.Entry
}

// Split partitions an index into n document partitions. Every term of
// the source index appears in every partition (same TermIDs, same
// DF/IDF/FMax — the global statistics), holding only the entries of
// documents assigned to that partition by ForDoc, repaged at the
// source's page size; a term with no local documents has an empty
// (zero-page) local list, which the evaluator scans in zero rounds.
// The partitions share the source's DocLen vector and vocabulary map
// (both read-only after construction).
//
// Split(ix, pages, 1) reproduces the source exactly: same page
// payloads, same layout, same metadata — the identity that anchors
// the router's single-shard equivalence tests.
func Split(ix *postings.Index, pages [][]postings.Entry, n int) ([]Partition, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: cannot split into %d partitions", n)
	}
	parts := make([]Partition, n)
	for s := range parts {
		parts[s].Index = &postings.Index{
			NumDocs:  ix.NumDocs,
			PageSize: ix.PageSize,
			Terms:    make([]postings.TermMeta, len(ix.Terms)),
			Vocab:    ix.Vocab,
			DocLen:   ix.DocLen,
		}
	}
	// Reused per-shard scratch for one term's local entries.
	local := make([][]postings.Entry, n)
	for t := range ix.Terms {
		tm := &ix.Terms[t]
		for s := range local {
			local[s] = local[s][:0]
		}
		// Walk the term's pages in order: filtering a
		// (freq desc, doc asc)-sorted list preserves that order within
		// every shard, so local lists stay frequency-sorted without
		// re-sorting.
		for i := 0; i < tm.NumPages; i++ {
			for _, e := range pages[ix.PageOf(postings.TermID(t), i)] {
				s := ForDoc(e.Doc, n)
				local[s] = append(local[s], e)
			}
		}
		for s := range parts {
			stm := postings.TermMeta{
				Name: tm.Name,
				// Global statistics: the evaluator's thresholds, term
				// order and skip decisions stay aligned with the
				// single-index run.
				DF:   tm.DF,
				IDF:  tm.IDF,
				FMax: tm.FMax,
			}
			// The scratch list is reused for the next term, so the
			// partition's pages are cut from a copy of their own; the
			// local physical layout is recorded as they are.
			list := append([]postings.Entry(nil), local[s]...)
			parts[s].Index.AppendList(&stm, list, func(_ int, page []postings.Entry) {
				parts[s].Pages = append(parts[s].Pages, page)
			})
			parts[s].Index.Terms[t] = stm
		}
	}
	for s := range parts {
		if err := parts[s].Index.RebuildPageMaps(); err != nil {
			return nil, fmt.Errorf("shard: partition %d: %w", s, err)
		}
	}
	return parts, nil
}
