package experiments

import (
	"fmt"
	"io"

	"bufir/internal/buffer"
	"bufir/internal/corpus"
	"bufir/internal/eval"
	"bufir/internal/postings"
	"bufir/internal/refine"
)

// ---------------------------------------------------------------------------
// E20 (extension) — footnote 9: "In workloads where such [short-list]
// terms are frequently accessed, techniques such as dual buffering
// [KK94] would be appropriate." The workload interleaves a recurring
// short query (ten single-page very-high-idf terms — a user's standing
// alert, say) with a long refinement sequence. A single pool lets the
// refinement's scans flood the short pages out; a dual pool reserves a
// small partition for them. Notably RAP alone does not protect them:
// its values are per-current-query, and the short terms are not in the
// refinement queries.
// ---------------------------------------------------------------------------

// DualBufResult compares single vs dual pools.
type DualBufResult struct {
	TotalPages int
	ShortPages int
	Rounds     int
	ShortTerms int
	// Reads[config] is the total disk reads over the interleaved run.
	Reads map[string]int
	// ShortReads[config] counts reads of the recurring short query
	// only — the traffic dual buffering protects.
	ShortReads map[string]int
}

// DualBufConfigs are compared in presentation order.
var DualBufConfigs = []string{"single/LRU", "single/RAP", "dual/LRU+LRU", "dual/LRU+RAP"}

// RunDualBuf runs the interleaved workload under each configuration.
func (e *Env) RunDualBuf() (*DualBufResult, error) {
	seq, err := e.Sequence(0, refine.AddOnly)
	if err != nil {
		return nil, err
	}
	// The recurring short query: ten single-page terms outside the
	// refinement topic.
	shortQuery, err := e.recurringShortQuery(seq, 10)
	if err != nil {
		return nil, err
	}

	// Size the pool well below the refinement footprint so scans create
	// real replacement pressure, and the short partition large enough
	// for every single-page term the workload touches (the standing
	// query plus the refinement topic's own rare terms).
	footprint, err := e.footprintSize(seq) // half the filtered footprint
	if err != nil {
		return nil, err
	}
	total := footprint
	if total < 20 {
		total = 20
	}
	singlePageTouched := len(shortQuery)
	for _, rt := range seq.Ranked {
		if e.Idx.Terms[rt.Term].NumPages == 1 {
			singlePageTouched++
		}
	}
	shortPart := singlePageTouched + 2
	if shortPart >= total {
		shortPart = total / 2
	}

	out := &DualBufResult{
		TotalPages: total,
		ShortPages: shortPart,
		Rounds:     len(seq.Refinements),
		ShortTerms: len(shortQuery),
		Reads:      make(map[string]int),
		ShortReads: make(map[string]int),
	}

	for _, cfg := range DualBufConfigs {
		var pool buffer.Pool
		switch cfg {
		case "single/LRU":
			mgr, err := serialPool(total, e.Store, e.Idx, buffer.NewLRU())
			if err != nil {
				return nil, err
			}
			pool = mgr
		case "single/RAP":
			mgr, err := serialPool(total, e.Store, e.Idx, buffer.NewRAP())
			if err != nil {
				return nil, err
			}
			pool = mgr
		case "dual/LRU+LRU":
			d, err := NewDualPool(shortPart, total-shortPart, 1, e.Store, e.Idx, buffer.NewLRU())
			if err != nil {
				return nil, err
			}
			pool = d
		case "dual/LRU+RAP":
			d, err := NewDualPool(shortPart, total-shortPart, 1, e.Store, e.Idx, buffer.NewRAP())
			if err != nil {
				return nil, err
			}
			pool = d
		}
		ev, err := eval.NewEvaluator(e.Idx, pool, e.Conv, e.Params())
		if err != nil {
			return nil, err
		}
		for _, q := range seq.Refinements {
			// The standing short query fires before every refinement.
			before := pool.Stats().Misses
			if _, err := ev.Evaluate(eval.DF, shortQuery); err != nil {
				return nil, err
			}
			out.ShortReads[cfg] += int(pool.Stats().Misses - before)
			if _, err := ev.Evaluate(eval.BAF, q); err != nil {
				return nil, err
			}
		}
		out.Reads[cfg] = int(pool.Stats().Misses)
	}
	return out, nil
}

// recurringShortQuery picks n single-page very-high-idf terms that are
// not part of the refinement sequence.
func (e *Env) recurringShortQuery(seq *refine.Sequence, n int) (eval.Query, error) {
	inSeq := map[postings.TermID]bool{}
	for _, rt := range seq.Ranked {
		inSeq[rt.Term] = true
	}
	var q eval.Query
	for t := range e.Idx.Terms {
		id := postings.TermID(t)
		if e.Col.BandOfTerm(t) != corpus.BandVeryHigh || inSeq[id] || e.Idx.Terms[t].NumPages != 1 {
			continue
		}
		q = append(q, eval.QueryTerm{Term: id, Fqt: 1})
		if len(q) == n {
			return q, nil
		}
	}
	if len(q) == 0 {
		return nil, fmt.Errorf("experiments: no single-page terms available for the short query")
	}
	return q, nil
}

// Format prints the comparison.
func (r *DualBufResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Dual buffering ([KK94], footnote 9): %d rounds of a %d-term standing short query interleaved with refinements\n",
		r.Rounds, r.ShortTerms)
	fmt.Fprintf(w, "total pool %d pages (dual reserves %d for single-page lists)\n", r.TotalPages, r.ShortPages)
	fmt.Fprintf(w, "%14s  %11s  %17s\n", "config", "total reads", "short-query reads")
	for _, cfg := range DualBufConfigs {
		fmt.Fprintf(w, "%14s  %11d  %17d\n", cfg, r.Reads[cfg], r.ShortReads[cfg])
	}
	fmt.Fprintln(w, "(RAP alone cannot protect the standing query's pages — its values are")
	fmt.Fprintln(w, " per-current-query — while a reserved short partition keeps them hot)")
}
