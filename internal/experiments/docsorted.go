package experiments

import (
	"fmt"
	"io"
	"math"

	"bufir/internal/eval"
	"bufir/internal/refine"
)

// ---------------------------------------------------------------------------
// E17 (baseline substrate) — footnote 14: term-at-a-time evaluation over
// document-sorted lists ([ZMSD92, MZ94, Bro95]) against the paper's
// frequency-sorted DF/BAF stack, on the ADD-ONLY QUERY1 refinement
// sequence, both exhaustively (OR) and with Moffat-Zobel Continue
// accumulator limiting — which saves memory but, as [MZ94] and
// footnote 14 note, not page reads.
//
// A document-ordered scan cannot stop a list on frequency, so it reads
// every page of every query term, term by term in decreasing-idf order
// with ties broken by TermID: the pages FULL (DF with filtering off)
// reads, in FULL's order, whatever the order of entries within a list.
// Each doc-sorted column is therefore FULL over an LRU pool. OR holds an
// accumulator for every document it meets, as FULL does; Continue stops
// creating them at the limit, so it holds min(FULL's, limit).
// ---------------------------------------------------------------------------

// DocSortedResult compares doc-sorted evaluation with DF and BAF.
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

// RunDocSorted sweeps the ADD-ONLY QUERY1 sequence under each compared
// row.
func (e *Env) RunDocSorted(points int) (*DocSortedResult, error) {
	seq, err := e.Sequence(0, refine.AddOnly)
	if err != nil {
		return nil, err
	}
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
	// Both doc-sorted columns are one FULL/LRU sweep: they differ only
	// in the accumulators Continue keeps.
	full := eval.Params{TopN: e.Params().TopN}
	for _, sweep := range []struct {
		algo   eval.Algorithm
		policy string
		params eval.Params
		cols   []string
		caps   []int // each column's accumulator cap
	}{
		{eval.DF, "LRU", full, DocSortedConfigs[:2], []int{math.MaxInt, limit}},
		{eval.DF, "LRU", e.Params(), DocSortedConfigs[2:3], []int{math.MaxInt}},
		{eval.BAF, "RAP", e.Params(), DocSortedConfigs[3:], []int{math.MaxInt}},
	} {
		series := make([]int, 0, len(out.Sizes))
		for _, size := range out.Sizes {
			sr, err := e.RunSequence(seq, sweep.algo, sweep.policy, size, sweep.params, nil)
			if err != nil {
				return nil, err
			}
			series = append(series, sr.TotalReads)
			for i, cfg := range sweep.cols {
				accums := 0.0
				for _, r := range sr.PerRef {
					accums += float64(min(r.Accumulators, sweep.caps[i]))
				}
				out.AvgAccums[cfg] = accums / float64(len(sr.PerRef)) // value at the last sweep point
			}
		}
		for _, cfg := range sweep.cols {
			out.Series[cfg] = series
		}
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
