// Package experiments reproduces every table and figure of the
// paper's evaluation (§5). Each experiment is a function over a shared
// Env (collection + index + simulated disk) returning a structured
// result with a Format method that prints the paper-style table or
// data series. DESIGN.md §4 maps experiment IDs to paper artifacts.
package experiments

import (
	"fmt"
	"sort"

	"bufir/internal/buffer"
	"bufir/internal/corpus"
	"bufir/internal/eval"
	"bufir/internal/metrics"
	"bufir/internal/postings"
	"bufir/internal/rank"
	"bufir/internal/refine"
	"bufir/internal/storage"
)

// Env bundles the experimental environment of §4: the synthetic
// collection, its inverted index on the simulated disk, the conversion
// table, and the resolved topics. Building an Env is deterministic in
// the config's seed.
type Env struct {
	Cfg   corpus.Config
	Col   *corpus.Collection
	Idx   *postings.Index
	Store *storage.Store
	// Pages holds the raw page payloads (the Store's contents), kept
	// for experiments that build alternative physical representations
	// (compression, doc-sorted baselines).
	Pages [][]postings.Entry
	Conv  *postings.ConversionTable

	// Queries[i] is the resolved query for topic i; Rel[i] its
	// relevance judgments.
	Queries []eval.Query
	Rel     []metrics.RelevanceSet

	// params holds the filtering constants used by the filtered runs.
	// Defaults to eval.TunedParams() — the constants calibrated to the
	// synthetic collection, just as the paper's 0.002/0.07 were
	// calibrated to WSJ. Override via SetParams before running
	// experiments.
	params *eval.Params

	// caches
	rankedByTopic  map[int][]refine.RankedTerm
	fullTopByTopic map[int][]rank.ScoredDoc
}

// Params returns the filtering parameters used by the experiments.
func (e *Env) Params() eval.Params {
	if e.params != nil {
		return *e.params
	}
	return eval.TunedParams()
}

// SetParams overrides the filtering parameters (e.g. eval.PaperParams
// to run with the paper's WSJ-tuned constants).
func (e *Env) SetParams(p eval.Params) { e.params = &p }

// NewEnv generates the collection and builds the index and store.
func NewEnv(cfg corpus.Config) (*Env, error) {
	col, err := corpus.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ix, pages, err := postings.Build(col.Lists, col.NumDocs, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	env := &Env{
		Cfg:            cfg,
		Col:            col,
		Idx:            ix,
		Store:          storage.NewStore(pages),
		Pages:          pages,
		Conv:           postings.NewConversionTable(ix, postings.DefaultMaxKey),
		rankedByTopic:  make(map[int][]refine.RankedTerm),
		fullTopByTopic: make(map[int][]rank.ScoredDoc),
	}
	for _, t := range col.Topics {
		q, err := refine.QueryFromTopic(ix, t)
		if err != nil {
			return nil, err
		}
		env.Queries = append(env.Queries, q)
		env.Rel = append(env.Rel, metrics.NewRelevanceSet(t.Relevant))
	}
	return env, nil
}

// NewPolicy constructs a replacement policy by name, sized for a pool
// of the given page capacity. The extension policies E14 and E26
// measure — LRU-2, 2Q and ADAPTIVE — are experiment apparatus built
// here (2Q and ADAPTIVE scale their probation/ghost structures from
// the capacity); every other name goes through buffer.PolicyFactory,
// the mapping the public API resolves through, so the experiment and
// serving paths cannot drift.
func NewPolicy(name string, capacity int) (buffer.Policy, error) {
	switch name {
	case "LRU-2":
		return buffer.NewLRUK(2), nil
	case "2Q":
		return buffer.NewTwoQ(capacity), nil
	case "ADAPTIVE":
		return buffer.NewAdaptive(capacity), nil
	}
	mk, err := buffer.PolicyFactory(name)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return mk(capacity), nil
}

// Policies lists the studied replacement policies in the paper's
// presentation order.
var Policies = []string{"LRU", "MRU", "RAP"}

// serialPool builds the one-shard buffer manager — the serial,
// bit-for-bit-reproducible pool every table and figure runs on —
// around one policy instance.
func serialPool(capacity int, store buffer.PageReader, ix *postings.Index, pol buffer.Policy) (*buffer.Manager, error) {
	return buffer.NewManager(capacity, 1, store, ix, func(int) buffer.Policy { return pol })
}

// newEvaluator builds a fresh evaluator with its own buffer pool.
func (e *Env) newEvaluator(bufPages int, policy string, p eval.Params) (*eval.Evaluator, *buffer.Manager, error) {
	pol, err := NewPolicy(policy, bufPages)
	if err != nil {
		return nil, nil, err
	}
	mgr, err := serialPool(bufPages, e.Store, e.Idx, pol)
	if err != nil {
		return nil, nil, err
	}
	ev, err := eval.NewEvaluator(e.Idx, mgr, e.Conv, p)
	if err != nil {
		return nil, nil, err
	}
	return ev, mgr, nil
}

// EvaluateCold runs a single query against cold, ample buffers (no
// replacement can occur) and returns its result. Used by the
// single-query experiments (Figures 3–4, Table 5) which flush buffers
// between queries.
func (e *Env) EvaluateCold(algo eval.Algorithm, q eval.Query, p eval.Params) (*eval.Result, error) {
	pages := e.queryPages(q) + 1
	ev, _, err := e.newEvaluator(pages, "LRU", p)
	if err != nil {
		return nil, err
	}
	return ev.Evaluate(algo, q)
}

// queryPages returns the total number of inverted-list pages of the
// query's terms (Figure 3's x-axis).
func (e *Env) queryPages(q eval.Query) int {
	total := 0
	for _, qt := range q {
		total += e.Idx.Terms[qt.Term].NumPages
	}
	return total
}

// FullTop returns the top-20 documents of topic ti under FULL
// (unoptimized) evaluation, cached per topic; it anchors the
// contribution ranking of §5.1.2.
func (e *Env) FullTop(ti int) ([]rank.ScoredDoc, error) {
	if top, ok := e.fullTopByTopic[ti]; ok {
		return top, nil
	}
	res, err := e.EvaluateCold(eval.DF, e.Queries[ti], eval.Params{CAdd: 0, CIns: 0, TopN: 20})
	if err != nil {
		return nil, err
	}
	e.fullTopByTopic[ti] = res.Top
	return res.Top, nil
}

// RankedTerms returns topic ti's terms in contribution order, cached.
func (e *Env) RankedTerms(ti int) ([]refine.RankedTerm, error) {
	if r, ok := e.rankedByTopic[ti]; ok {
		return r, nil
	}
	top, err := e.FullTop(ti)
	if err != nil {
		return nil, err
	}
	ranked, err := refine.RankByContribution(e.Idx, e.Store, e.Queries[ti], top)
	if err != nil {
		return nil, err
	}
	e.rankedByTopic[ti] = ranked
	return ranked, nil
}

// Sequence builds the refinement sequence for topic ti and workload
// kind.
func (e *Env) Sequence(ti int, kind refine.Kind) (*refine.Sequence, error) {
	ranked, err := e.RankedTerms(ti)
	if err != nil {
		return nil, err
	}
	return refine.BuildSequence(e.Col.Topics[ti].ID, kind, ranked, refine.GroupSize)
}

// RefinementStats captures one refinement's execution metrics.
type RefinementStats struct {
	Reads        int
	Processed    int
	Entries      int
	Accumulators int
	AvgPrecision float64
}

// SequenceResult aggregates a full refinement-sequence run.
type SequenceResult struct {
	Algo       eval.Algorithm
	Policy     string
	BufferSize int
	PerRef     []RefinementStats
	TotalReads int
}

// RunSequence evaluates every refinement of the sequence in order
// against a fresh buffer pool of bufPages pages (the cache is cleared
// before the start of each sequence, as in §5.2.1), accumulating
// per-refinement statistics. rel supplies the topic's relevance
// judgments for the effectiveness metric (may be nil).
func (e *Env) RunSequence(seq *refine.Sequence, algo eval.Algorithm, policy string, bufPages int, p eval.Params, rel metrics.RelevanceSet) (*SequenceResult, error) {
	ev, _, err := e.newEvaluator(bufPages, policy, p)
	if err != nil {
		return nil, err
	}
	out := &SequenceResult{Algo: algo, Policy: policy, BufferSize: bufPages}
	for _, q := range seq.Refinements {
		res, err := ev.Evaluate(algo, q)
		if err != nil {
			return nil, err
		}
		rs := RefinementStats{
			Reads:        res.PagesRead,
			Processed:    res.PagesProcessed,
			Entries:      res.EntriesProcessed,
			Accumulators: res.Accumulators,
		}
		if rel != nil {
			rs.AvgPrecision = metrics.AveragePrecision(res.Top, rel)
		}
		out.PerRef = append(out.PerRef, rs)
		out.TotalReads += res.PagesRead
	}
	return out, nil
}

// WorkingSetPages returns the number of distinct pages the sequence's
// largest refinement can touch: the total list pages of the union of
// its terms. Buffer-size sweeps scale against this.
func (e *Env) WorkingSetPages(seq *refine.Sequence) int {
	seen := make(map[postings.TermID]bool)
	total := 0
	for _, q := range seq.Refinements {
		for _, qt := range q {
			if !seen[qt.Term] {
				seen[qt.Term] = true
				total += e.Idx.Terms[qt.Term].NumPages
			}
		}
	}
	return total
}

// SweepSizes produces a deterministic ascending buffer-size sweep from
// 1 page up to slightly beyond the working set, mimicking the x-axes
// of Figures 5–8.
func SweepSizes(workingSet, points int) []int {
	if workingSet < 1 {
		workingSet = 1
	}
	if points < 2 {
		points = 2
	}
	sizes := map[int]bool{1: true}
	for i := 1; i <= points; i++ {
		s := workingSet * i / points
		if s < 1 {
			s = 1
		}
		sizes[s] = true
	}
	sizes[workingSet+workingSet/10+1] = true
	out := make([]int, 0, len(sizes))
	for s := range sizes {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
