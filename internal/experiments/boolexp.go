package experiments

import (
	"fmt"
	"io"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/metrics"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// ---------------------------------------------------------------------------
// E19 (motivation) — §2.1: "Formulating boolean queries that return
// result sets of manageable size has been shown to require significant
// expertise" and "natural language techniques give better query
// results than boolean techniques" [Tur94]. For each topic we build
// the natural AND and OR queries over its three strongest terms and
// compare result-set sizes and precision against ranked top-20
// retrieval over the same terms.
// ---------------------------------------------------------------------------

// BooleanRow is one topic's comparison.
type BooleanRow struct {
	TopicID      int
	AndSize      int
	OrSize       int
	AndPrecision float64
	OrPrecision  float64
	// RankedP20 is precision@20 of ranked retrieval with the same
	// three terms.
	RankedP20 float64
}

// BooleanResult aggregates the comparison.
type BooleanResult struct {
	Rows []BooleanRow
	// Aggregates.
	MeanAndSize, MeanOrSize          float64
	MeanAndPrec, MeanOrPrec, MeanP20 float64
	EmptyAnds, OverflowOrs, Topics   int
	// OverflowThreshold is the "unmanageable" size bound (a user will
	// not inspect more).
	OverflowThreshold int
}

// RunBoolean compares boolean AND/OR against ranked retrieval for the
// first numTopics topics.
func (e *Env) RunBoolean(numTopics int) (*BooleanResult, error) {
	if numTopics <= 0 || numTopics > len(e.Queries) {
		numTopics = 20
		if numTopics > len(e.Queries) {
			numTopics = len(e.Queries)
		}
	}
	// Boolean systems run over doc-sorted lists.
	dsIx, dsPages, err := postings.BuildDocSorted(e.Col.Lists, e.Col.NumDocs, e.Cfg.PageSize)
	if err != nil {
		return nil, err
	}
	dsStore := storage.NewStore(dsPages)
	mgr, err := serialPool(256, dsStore, dsIx, buffer.NewLRU())
	if err != nil {
		return nil, err
	}
	bev, err := newBoolEvaluator(dsIx, mgr)
	if err != nil {
		return nil, err
	}

	out := &BooleanResult{OverflowThreshold: 200, Topics: numTopics}
	for ti := 0; ti < numTopics; ti++ {
		ranked, err := e.RankedTerms(ti)
		if err != nil {
			return nil, err
		}
		if len(ranked) < 3 {
			continue
		}
		names := make([]string, 3)
		for i := 0; i < 3; i++ {
			names[i] = e.Idx.Terms[ranked[i].Term].Name
		}
		rel := e.Rel[ti]
		row := BooleanRow{TopicID: e.Col.Topics[ti].ID}

		for _, mode := range []string{"AND", "OR"} {
			q := names[0] + " " + mode + " " + names[1] + " " + mode + " " + names[2]
			expr, err := parseBoolean(q, dsIx.LookupTerm)
			if err != nil {
				return nil, err
			}
			res, err := bev.Evaluate(expr)
			if err != nil {
				return nil, err
			}
			relHits := 0
			for _, d := range res.Docs {
				if rel[d] {
					relHits++
				}
			}
			prec := 0.0
			if len(res.Docs) > 0 {
				prec = float64(relHits) / float64(len(res.Docs))
			}
			if mode == "AND" {
				row.AndSize, row.AndPrecision = len(res.Docs), prec
			} else {
				row.OrSize, row.OrPrecision = len(res.Docs), prec
			}
		}

		// Ranked retrieval over the same three terms.
		var q eval.Query
		for i := 0; i < 3; i++ {
			q = append(q, ranked[i].QueryTerm)
		}
		full, err := e.EvaluateCold(eval.DF, q, eval.Params{TopN: 20})
		if err != nil {
			return nil, err
		}
		row.RankedP20 = metrics.PrecisionAtK(full.Top, rel, 20)

		out.Rows = append(out.Rows, row)
		out.MeanAndSize += float64(row.AndSize)
		out.MeanOrSize += float64(row.OrSize)
		out.MeanAndPrec += row.AndPrecision
		out.MeanOrPrec += row.OrPrecision
		out.MeanP20 += row.RankedP20
		if row.AndSize == 0 {
			out.EmptyAnds++
		}
		if row.OrSize > out.OverflowThreshold {
			out.OverflowOrs++
		}
	}
	if n := float64(len(out.Rows)); n > 0 {
		out.MeanAndSize /= n
		out.MeanOrSize /= n
		out.MeanAndPrec /= n
		out.MeanOrPrec /= n
		out.MeanP20 /= n
	}
	return out, nil
}

// Format prints the comparison.
func (r *BooleanResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Boolean vs ranked retrieval (§2.1 motivation), %d topics, 3 strongest terms each\n", r.Topics)
	fmt.Fprintf(w, "mean result size: AND %.0f docs, OR %.0f docs (ranked returns exactly 20)\n",
		r.MeanAndSize, r.MeanOrSize)
	fmt.Fprintf(w, "mean precision:   AND %.3f, OR %.3f, ranked P@20 %.3f\n",
		r.MeanAndPrec, r.MeanOrPrec, r.MeanP20)
	fmt.Fprintf(w, "unmanageable answers: %d/%d empty ANDs, %d/%d ORs over %d docs\n",
		r.EmptyAnds, len(r.Rows), r.OverflowOrs, len(r.Rows), r.OverflowThreshold)
	fmt.Fprintln(w, "(the paper's §2.1 point: boolean result sizes are hard to control;")
	fmt.Fprintln(w, " ranking returns a manageable, better-ordered answer)")
}
