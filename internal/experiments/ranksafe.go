package experiments

import (
	"fmt"
	"io"

	"bufir/internal/eval"
	"bufir/internal/postings"
	"bufir/internal/rank"
)

// ---------------------------------------------------------------------------
// E27 (extension) — the rank-safe frontier: pages read × overlap@20 ×
// exactness for exact evaluation, FULL (exhaustive DF, which is what
// MAXSCORE runs), against the paper's unsafe filters (DF / BAF with the
// tuned constants), across buffer sizes and replacement policies. The
// workload is each topic's query plus its 1-term and 2-term prefixes
// (the anchor cells: short, skewed queries). The filters pay for their
// page savings in overlap; FULL pays for exactness in pages. The
// acceptance boolean pins that FULL is exact in every cell — on a warm
// pool of every size and policy, its answers are bit-identical to the
// cold reference. No rank-safe method with a termination proof runs
// here: on these frequency-sorted lists it reads nearly every page FULL
// does, at a multiple of FULL's CPU (DESIGN.md §14).
// ---------------------------------------------------------------------------

// RankSafePolicies is the replacement-policy axis of E27: the
// file-system default and the paper's ranking-aware policy.
var RankSafePolicies = []string{"LRU", "RAP"}

// rankSafeK is the answer size (the paper's top-20).
const rankSafeK = 20

// RankSafeRow is one (method, policy, buffer size) cell.
type RankSafeRow struct {
	Method   string
	Policy   string
	BufPages int
	// PagesRead sums disk reads over the whole workload on one warm
	// pool; PagesProcessed counts pages scanned (read or hit).
	PagesRead      int
	PagesProcessed int
	// Overlap is the mean overlap@20 against the FULL reference over
	// the workload; Exact is true when every answer was bit-identical
	// to it (documents, float64 scores and tie order).
	Overlap float64
	Exact   bool
}

// RankSafeResult holds the E27 sweep.
type RankSafeResult struct {
	TopN       int
	Queries    int // workload size (topics + prefixes)
	Anchors    int // 1- and 2-term prefix queries among them
	WorkingSet int // distinct list pages of the workload's vocabulary
	Sizes      []int
	Policies   []string
	Methods    []string
	Rows       []RankSafeRow

	// SafeExactEverywhere: every FULL cell was exact.
	SafeExactEverywhere bool
}

// rankSafeMethod pairs a method name with its algorithm and tuning.
type rankSafeMethod struct {
	name string
	algo eval.Algorithm
	p    eval.Params
}

// rankSafeMethods builds the method axis: FULL runs exhaustive
// parameters; DF and BAF run the collection-tuned filters.
func (e *Env) rankSafeMethods() []rankSafeMethod {
	exact := eval.Params{TopN: rankSafeK}
	tuned := e.Params()
	tuned.TopN = rankSafeK
	return []rankSafeMethod{
		{"FULL", eval.DF, exact},
		{"DF", eval.DF, tuned},
		{"BAF", eval.BAF, tuned},
	}
}

// rankSafeWorkload is each topic's query preceded by its 1- and 2-term
// prefixes (contribution order — the order refinement adds them). The
// prefix count is returned as the anchor count.
func (e *Env) rankSafeWorkload() ([]eval.Query, int, error) {
	var queries []eval.Query
	anchors := 0
	for ti := range e.Queries {
		ranked, err := e.RankedTerms(ti)
		if err != nil {
			return nil, 0, err
		}
		for _, n := range []int{1, 2} {
			if len(ranked) < n {
				continue
			}
			q := make(eval.Query, n)
			for i := 0; i < n; i++ {
				q[i] = eval.QueryTerm{Term: ranked[i].Term, Fqt: ranked[i].Fqt}
			}
			queries = append(queries, q)
			anchors++
		}
		queries = append(queries, e.Queries[ti])
	}
	return queries, anchors, nil
}

// RunRankSafe runs the E27 sweep with a points-sized buffer axis.
func (e *Env) RunRankSafe(points int) (*RankSafeResult, error) {
	return e.runRankSafe(points, RankSafePolicies)
}

// runRankSafe runs the E27 sweep over the named policies.
func (e *Env) runRankSafe(points int, policies []string) (*RankSafeResult, error) {
	queries, anchors, err := e.rankSafeWorkload()
	if err != nil {
		return nil, err
	}

	// FULL reference answers, computed once over cold ample buffers.
	refs := make([][]rank.ScoredDoc, len(queries))
	for i, q := range queries {
		res, err := e.EvaluateCold(eval.DF, q, eval.Params{TopN: rankSafeK})
		if err != nil {
			return nil, err
		}
		refs[i] = res.Top
	}

	seen := make(map[postings.TermID]bool)
	ws := 0
	for _, q := range queries {
		for _, qt := range q {
			if !seen[qt.Term] {
				seen[qt.Term] = true
				ws += e.Idx.Terms[qt.Term].NumPages
			}
		}
	}
	sizes := SweepSizes(ws, points)

	methods := e.rankSafeMethods()
	out := &RankSafeResult{
		TopN:       rankSafeK,
		Queries:    len(queries),
		Anchors:    anchors,
		WorkingSet: ws,
		Sizes:      sizes,
		Policies:   policies,
	}
	for _, m := range methods {
		out.Methods = append(out.Methods, m.name)
	}

	out.SafeExactEverywhere = true
	for _, policy := range out.Policies {
		for _, size := range sizes {
			for _, m := range methods {
				row, err := e.runRankSafeCell(m, policy, size, queries, refs)
				if err != nil {
					return nil, fmt.Errorf("ranksafe %s %s/%d buffers: %w", m.name, policy, size, err)
				}
				if m.name == "FULL" && !row.Exact {
					out.SafeExactEverywhere = false
				}
				out.Rows = append(out.Rows, *row)
			}
		}
	}
	return out, nil
}

// runRankSafeCell drives the whole workload through one evaluator on
// one warm pool (queries share residency, as a refinement session's
// would) and aggregates the cell's row.
func (e *Env) runRankSafeCell(m rankSafeMethod, policy string, size int, queries []eval.Query, refs [][]rank.ScoredDoc) (*RankSafeRow, error) {
	ev, _, err := e.newEvaluator(size, policy, m.p)
	if err != nil {
		return nil, err
	}
	row := &RankSafeRow{Method: m.name, Policy: policy, BufPages: size, Exact: true}
	var overlapSum float64
	for i, q := range queries {
		res, err := ev.Evaluate(m.algo, q)
		if err != nil {
			return nil, err
		}
		row.PagesRead += res.PagesRead
		row.PagesProcessed += res.PagesProcessed
		overlapSum += rank.OverlapAtK(res.Top, refs[i], rankSafeK)
		if !sameRanking(res.Top, refs[i]) {
			row.Exact = false
		}
	}
	row.Overlap = overlapSum / float64(len(queries))
	return row, nil
}

// sameRanking reports bit-identical rankings: same documents, same
// float64 scores, same order.
func sameRanking(got, want []rank.ScoredDoc) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// Format prints one table per policy plus the verdict.
func (r *RankSafeResult) Format(w io.Writer) {
	fmt.Fprintf(w, "E27: the rank-safe frontier — pages read x overlap@%d x exactness\n\n", r.TopN)
	fmt.Fprintf(w, "%d queries (%d anchor prefixes), %d-page working set, one warm pool per cell\n",
		r.Queries, r.Anchors, r.WorkingSet)
	fmt.Fprintf(w, "FULL (= MAXSCORE) runs exhaustive parameters; DF/BAF run the tuned filters\n")
	for _, policy := range r.Policies {
		fmt.Fprintf(w, "\n%s pages read (overlap@%d; * = exact):\n%8s", policy, r.TopN, "buffers")
		for _, m := range r.Methods {
			fmt.Fprintf(w, "  %16s", m)
		}
		fmt.Fprintln(w)
		for _, size := range r.Sizes {
			fmt.Fprintf(w, "%8d", size)
			for _, m := range r.Methods {
				row, ok := r.row(m, policy, size)
				if !ok {
					fmt.Fprintf(w, "  %16s", "-")
					continue
				}
				marker := " "
				if row.Exact {
					marker = "*"
				}
				fmt.Fprintf(w, "  %9d (%4.2f)%s", row.PagesRead, row.Overlap, marker)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\nFULL exact in every cell: %v\n", r.SafeExactEverywhere)
	fmt.Fprintln(w, "(the filters buy their page savings with overlap; exactness costs FULL's pages)")
}

// row finds the cell for (method, policy, size).
func (r *RankSafeResult) row(method, policy string, size int) (RankSafeRow, bool) {
	for _, row := range r.Rows {
		if row.Method == method && row.Policy == policy && row.BufPages == size {
			return row, true
		}
	}
	return RankSafeRow{}, false
}
