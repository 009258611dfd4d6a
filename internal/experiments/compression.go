package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bufir/internal/buffer"
	"bufir/internal/codec"
	"bufir/internal/eval"
	"bufir/internal/indexfile"
	"bufir/internal/storage"
)

// ---------------------------------------------------------------------------
// E15 (physical design) — §4.2 bases the 404-entry page size on the
// [PZSD96] compression scheme: a 6-byte (d, f_dt) entry compresses to
// about one byte. This experiment writes the whole synthetic index to
// a paged index file in that scheme, reports the achieved ratio, and
// verifies that query execution over the file is identical (same
// rankings, same page reads) while counting the decompression work
// the paper attributes most retrieval CPU time to.
// ---------------------------------------------------------------------------

// CompressionResult summarizes the compressed physical index.
type CompressionResult struct {
	Stats codec.Stats
	// Identical reports whether DF produced identical rankings and
	// read counts over the compressed file and the plain store for the
	// sample queries.
	Identical bool
	// DecodedEntries is the decompression work for the sample queries
	// (the CPU-cost proxy; proportional to pages read).
	DecodedEntries int64
	SampleQueries  int
}

// RunCompression writes the index to a temporary paged index file and
// replays the first few topics over both representations.
func (e *Env) RunCompression() (*CompressionResult, error) {
	dir, err := os.MkdirTemp("", "bufir-e15-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "index.bufir")
	if err := indexfile.WritePageFile(path, e.Idx, e.Pages, nil, 0); err != nil {
		return nil, err
	}
	cs, err := storage.OpenFileStore(path, indexfile.PageFileOptions{})
	if err != nil {
		return nil, err
	}
	defer cs.Close()
	out := &CompressionResult{Stats: cs.CompressionStats(), Identical: true}

	run := func(store buffer.PageReader, q eval.Query) (*eval.Result, error) {
		mgr, err := serialPool(64, store, e.Idx, buffer.NewLRU())
		if err != nil {
			return nil, err
		}
		ev, err := eval.NewEvaluator(e.Idx, mgr, e.Conv, e.Params())
		if err != nil {
			return nil, err
		}
		return ev.Evaluate(eval.DF, q)
	}

	sample := 5
	if sample > len(e.Queries) {
		sample = len(e.Queries)
	}
	out.SampleQueries = sample
	for ti := 0; ti < sample; ti++ {
		plain, err := run(e.Store, e.Queries[ti])
		if err != nil {
			return nil, err
		}
		comp, err := run(cs, e.Queries[ti])
		if err != nil {
			return nil, err
		}
		if plain.PagesRead != comp.PagesRead ||
			plain.Accumulators != comp.Accumulators ||
			len(plain.Top) != len(comp.Top) {
			out.Identical = false
			continue
		}
		for i := range plain.Top {
			if plain.Top[i] != comp.Top[i] {
				out.Identical = false
				break
			}
		}
	}
	out.DecodedEntries = cs.DecodedEntries()
	return out, nil
}

// Format prints the compression summary.
func (r *CompressionResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Compression ([PZSD96], §4.2): %d entries, %.2f bytes/entry, ratio %.1f:1 vs 6-byte entries\n",
		r.Stats.Entries, r.Stats.BytesPerEntry(), r.Stats.Ratio())
	fmt.Fprintf(w, "query equivalence over %d sample queries: identical=%v, %d entries decompressed\n",
		r.SampleQueries, r.Identical, r.DecodedEntries)
	fmt.Fprintln(w, "(the paper: ~6-byte entries compress to about one byte; decompression")
	fmt.Fprintln(w, " dominates CPU cost and is proportional to pages read)")
}
