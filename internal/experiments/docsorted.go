package experiments

import (
	"fmt"
	"io"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/postings"
	"bufir/internal/refine"
	"bufir/internal/storage"
)

// ---------------------------------------------------------------------------
// E17 (baseline substrate) — footnote 14, measured with a real engine:
// term-at-a-time evaluation over document-sorted lists ([ZMSD92, MZ94,
// Bro95]) against the paper's frequency-sorted DF/BAF stack, on the
// ADD-ONLY QUERY1 refinement sequence. The doc-sorted engine runs both
// exhaustively (OR) and with Moffat-Zobel Continue accumulator
// limiting — which saves memory but, as [MZ94] and footnote 14 note,
// not page reads.
// ---------------------------------------------------------------------------

// DocSortedResult compares the two physical designs.
type DocSortedResult struct {
	TopicID    int
	WorkingSet int
	AccumLimit int
	Sizes      []int
	// Series rows: "docsorted-OR/LRU", "docsorted-CONT/LRU",
	// "DF/LRU", "BAF/RAP".
	Series map[string][]int
	// AvgAccums compares memory use: average candidate-set size per
	// refinement for docsorted-OR vs docsorted-CONT vs DF.
	AvgAccums map[string]float64
}

// DocSortedConfigs lists the compared rows.
var DocSortedConfigs = []string{"docsorted-OR/LRU", "docsorted-CONT/LRU", "DF/LRU", "BAF/RAP"}

// RunDocSorted builds a doc-sorted twin of the index and sweeps the
// ADD-ONLY QUERY1 sequence over both representations.
func (e *Env) RunDocSorted(points int) (*DocSortedResult, error) {
	seq, err := e.Sequence(0, refine.AddOnly)
	if err != nil {
		return nil, err
	}
	dsIx, dsPages, err := postings.BuildDocSorted(e.Col.Lists, e.Col.NumDocs, e.Cfg.PageSize)
	if err != nil {
		return nil, err
	}
	dsStore := storage.NewStore(dsPages)

	ws := e.WorkingSetPages(seq)
	limit := 1000 // generous Moffat-Zobel budget; DF's candidate sets are smaller
	out := &DocSortedResult{
		TopicID:    seq.TopicID,
		WorkingSet: ws,
		AccumLimit: limit,
		Sizes:      SweepSizes(ws, points),
		Series:     make(map[string][]int, len(DocSortedConfigs)),
		AvgAccums:  make(map[string]float64),
	}

	runDS := func(strategy docSortedStrategy, size int) (int, float64, error) {
		mgr, err := serialPool(size, dsStore, dsIx, buffer.NewLRU())
		if err != nil {
			return 0, 0, err
		}
		ev, err := newDocSortedEvaluator(dsIx, mgr, e.Params().TopN)
		if err != nil {
			return 0, 0, err
		}
		ev.AccumLimit = limit
		total, accums := 0, 0.0
		for _, q := range seq.Refinements {
			// Term ids are identical across layouts: both builders
			// assign them in collection list order.
			res, err := ev.Evaluate(strategy, q)
			if err != nil {
				return 0, 0, err
			}
			total += res.PagesRead
			accums += float64(res.Accumulators)
		}
		return total, accums / float64(len(seq.Refinements)), nil
	}

	for _, cfg := range DocSortedConfigs {
		series := make([]int, 0, len(out.Sizes))
		for _, size := range out.Sizes {
			var reads int
			var accums float64
			var err error
			switch cfg {
			case "docsorted-OR/LRU":
				reads, accums, err = runDS(strategyOR, size)
			case "docsorted-CONT/LRU":
				reads, accums, err = runDS(strategyContinue, size)
			case "DF/LRU":
				var sr *SequenceResult
				sr, err = e.RunSequence(seq, eval.DF, "LRU", size, e.Params(), nil)
				if err == nil {
					reads = sr.TotalReads
					accums = meanAccums(sr)
				}
			case "BAF/RAP":
				var sr *SequenceResult
				sr, err = e.RunSequence(seq, eval.BAF, "RAP", size, e.Params(), nil)
				if err == nil {
					reads = sr.TotalReads
					accums = meanAccums(sr)
				}
			}
			if err != nil {
				return nil, err
			}
			series = append(series, reads)
			out.AvgAccums[cfg] = accums // value at the last sweep point
		}
		out.Series[cfg] = series
	}
	return out, nil
}

// Format prints the comparison.
func (r *DocSortedResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Doc-sorted baseline (footnote 14): ADD-ONLY-QUERY%d, total disk reads (working set %d, accumulator limit %d)\n",
		r.TopicID, r.WorkingSet, r.AccumLimit)
	fmt.Fprintf(w, "%8s", "buffers")
	for _, cfg := range DocSortedConfigs {
		fmt.Fprintf(w, "  %18s", cfg)
	}
	fmt.Fprintln(w)
	for i, size := range r.Sizes {
		fmt.Fprintf(w, "%8d", size)
		for _, cfg := range DocSortedConfigs {
			fmt.Fprintf(w, "  %18d", r.Series[cfg][i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "avg accumulators/refinement:")
	for _, cfg := range DocSortedConfigs {
		fmt.Fprintf(w, "  %s %.0f", cfg, r.AvgAccums[cfg])
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "(Continue limits memory, not reads; only frequency sorting enables")
	fmt.Fprintln(w, " the early scan termination DF and BAF exploit)")
}
