package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/postings"
	"bufir/internal/refine"
	"bufir/internal/storage"
)

// ---------------------------------------------------------------------------
// E26 (extension) — workload drift and adaptive replacement. The
// paper's verdict is per-workload: RAP dominates on refinement (the
// repeated sequential scans of §5.2 defeat recency) while plain LRU
// wins when the reference stream is recency-friendly (a hot set
// re-touched faster than RAP's value function can see — pages of hot
// terms absent from the CURRENT query value to w*·w_q = 0 and are
// evicted blindly). A served system sees both regimes in one process
// lifetime. This experiment drives every replacement policy through
// one continuous three-phase stream — refinement bursts, a cold
// multi-user-style churn over a rotating hot set, then the same churn
// under an E23 fault storm — without flushing between phases, and
// measures per-phase disk reads. The LeCaR-style ADAPTIVE policy must
// track the winning static expert in each phase; the acceptance
// booleans pin that down at the anchor buffer size.
// ---------------------------------------------------------------------------

// DriftPhases names the phases in execution order.
var DriftPhases = []string{"refine", "churn", "storm"}

// DriftResult holds the three-phase sweep.
type DriftResult struct {
	TopicID  int
	Policies []string
	Phases   []string
	Seed     uint64

	// Workload shape: refinement working set, churn hot set (terms and
	// pages), cold-term pool, and the phase lengths.
	WorkingSet int
	HotTerms   int
	HotPages   int
	ColdTerms  int
	Bursts     int
	ChurnSteps int
	StormSteps int

	// Sizes is the buffer sweep; Anchor is the size the acceptance
	// booleans are evaluated at (the drift-sensitive regime: large
	// enough for ghost memory to span a refinement burst, small enough
	// that neither phase's working set fits for free).
	Sizes  []int
	Anchor int

	// Series[policy][i][p] is total disk reads at Sizes[i] in phase p.
	Series map[string][][]int

	// Acceptance at the anchor size: each static expert loses one
	// phase, and ADAPTIVE stays within 10% of the best static policy
	// on both drift phases.
	LRULosesRefine         bool
	RAPLosesChurn          bool
	AdaptiveWithin10Refine bool
	AdaptiveWithin10Churn  bool
}

// driftWorkload is the precomputed three-phase reference stream.
type driftWorkload struct {
	seq    *refine.Sequence
	bursts int

	hot        []eval.QueryTerm // rotating hot set (multi-page terms)
	cold       []eval.QueryTerm // cold pool (cycled, one per step)
	churnSteps int
	stormSteps int
}

// churnQuery is step i of the churn stream: a window of three hot
// terms advancing one term per step, plus one cold term.
func (wl *driftWorkload) churnQuery(i int) eval.Query {
	n := len(wl.hot)
	q := eval.Query{
		wl.hot[i%n],
		wl.hot[(i+1)%n],
		wl.hot[(i+2)%n],
		wl.cold[i%len(wl.cold)],
	}
	return q
}

// RunDrift runs the E26 three-phase drift sweep.
func (e *Env) RunDrift(points int, seed uint64) (*DriftResult, error) {
	seq, err := e.Sequence(0, refine.AddOnly)
	if err != nil {
		return nil, err
	}
	ws := e.WorkingSetPages(seq)
	sizes := SweepSizes(ws, points)

	// Anchor: the size closest to 15% of the refinement working set —
	// the drift-sensitive regime. Filtered refinement only re-reads
	// list prefixes, so its effective working set is a fraction of the
	// raw page count; much above this every policy converges (the whole
	// access pattern fits), and much below it nothing fits for anyone.
	anchor := sizes[len(sizes)-1]
	for _, s := range sizes {
		if s > 1 && abs(s-ws*3/20) < abs(anchor-ws*3/20) {
			anchor = s
		}
	}

	wl, err := e.buildDriftWorkload(seq, anchor)
	if err != nil {
		return nil, err
	}

	out := &DriftResult{
		TopicID:    seq.TopicID,
		Policies:   buffer.PolicyNames,
		Phases:     DriftPhases,
		Seed:       seed,
		WorkingSet: ws,
		HotTerms:   len(wl.hot),
		HotPages:   e.termPages(wl.hot),
		ColdTerms:  len(wl.cold),
		Bursts:     wl.bursts,
		ChurnSteps: wl.churnSteps,
		StormSteps: wl.stormSteps,
		Sizes:      sizes,
		Anchor:     anchor,
		Series:     make(map[string][][]int, len(buffer.PolicyNames)),
	}

	for _, policy := range out.Policies {
		series := make([][]int, 0, len(sizes))
		for _, size := range sizes {
			reads, err := e.runDriftCell(policy, size, wl, seed)
			if err != nil {
				return nil, fmt.Errorf("drift %s/%d buffers: %w", policy, size, err)
			}
			series = append(series, reads[:])
		}
		out.Series[policy] = series
	}

	// Acceptance at the anchor size.
	ai := 0
	for i, s := range sizes {
		if s == anchor {
			ai = i
		}
	}
	at := func(policy string, phase int) int { return out.Series[policy][ai][phase] }
	bestStatic := func(phase int) int {
		best := -1
		for _, p := range out.Policies {
			if p == "ADAPTIVE" {
				continue
			}
			if r := at(p, phase); best < 0 || r < best {
				best = r
			}
		}
		return best
	}
	out.LRULosesRefine = at("LRU", 0) > at("RAP", 0)
	out.RAPLosesChurn = at("RAP", 1) > at("LRU", 1)
	out.AdaptiveWithin10Refine = 10*at("ADAPTIVE", 0) <= 11*bestStatic(0)
	out.AdaptiveWithin10Churn = 10*at("ADAPTIVE", 1) <= 11*bestStatic(1)
	return out, nil
}

// buildDriftWorkload derives the churn hot set and cold pool from the
// index: hot terms are multi-page lists outside the refinement
// sequence's vocabulary, greedily collected until they cover ~70% of
// the anchor buffer; cold terms are the shortest remaining lists,
// cycled one per step so every step drags never-hot pages through the
// pool.
func (e *Env) buildDriftWorkload(seq *refine.Sequence, anchor int) (*driftWorkload, error) {
	used := make(map[postings.TermID]bool)
	for _, q := range seq.Refinements {
		for _, qt := range q {
			used[qt.Term] = true
		}
	}
	hotTarget := anchor * 7 / 10
	// Cap individual hot lists so the hot set has at least ~8 terms to
	// rotate through (a window of 3 over 2 giant lists is no rotation).
	maxHotList := hotTarget / 8
	if maxHotList < 2 {
		maxHotList = 2
	}
	wl := &driftWorkload{seq: seq, bursts: 3}
	hotPages := 0
	for id := range e.Idx.Terms {
		tm := &e.Idx.Terms[id]
		t := postings.TermID(id)
		switch {
		case used[t]:
		case tm.NumPages >= 2 && tm.NumPages <= maxHotList && hotPages < hotTarget:
			wl.hot = append(wl.hot, eval.QueryTerm{Term: t, Fqt: 1})
			hotPages += tm.NumPages
		case tm.NumPages == 1 && len(wl.cold) < 512:
			wl.cold = append(wl.cold, eval.QueryTerm{Term: t, Fqt: 1})
		}
	}
	if len(wl.hot) < 4 {
		return nil, fmt.Errorf("drift: only %d multi-page terms outside the refinement vocabulary", len(wl.hot))
	}
	if len(wl.cold) < 16 {
		return nil, fmt.Errorf("drift: only %d single-page cold terms available", len(wl.cold))
	}
	// Thirty full rotations of the hot window per churn phase: the
	// phase-boundary transition costs ADAPTIVE a bounded number of
	// in-flight mistakes (pages the RAP expert evicted before the
	// regret signal flipped the weights), so the phase must be long
	// enough for steady-state behavior to dominate the total. The storm
	// re-runs a fifth as many steps under faults.
	wl.churnSteps = 30 * len(wl.hot)
	wl.stormSteps = 6 * len(wl.hot)
	return wl, nil
}

// termPages sums the list pages of a term set.
func (e *Env) termPages(ts []eval.QueryTerm) int {
	total := 0
	for _, qt := range ts {
		total += e.Idx.Terms[qt.Term].NumPages
	}
	return total
}

// gatedDriftStore lets the storm phase swap a seeded FaultStore under
// a live Manager without rebuilding the pool (the point of E26 is one
// continuous pool across phases). The experiment is single-threaded,
// so a plain field swap between evaluations is safe.
type gatedDriftStore struct {
	inner buffer.PageReader
}

func (s *gatedDriftStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	return s.inner.ReadContext(ctx, id)
}

// runDriftCell drives one (policy, buffer size) cell through all three
// phases over a single Manager and returns per-phase disk reads.
func (e *Env) runDriftCell(policy string, size int, wl *driftWorkload, seed uint64) ([3]int, error) {
	var reads [3]int
	gate := &gatedDriftStore{inner: e.Store}
	pol, err := NewPolicy(policy, size)
	if err != nil {
		return reads, err
	}
	mgr, err := serialPool(size, gate, e.Idx, pol)
	if err != nil {
		return reads, err
	}

	// Phase 1 — refinement bursts: the ADD-ONLY sequence re-run
	// back-to-back with the tuned filtering constants (the §5.2 access
	// pattern RAP was built for).
	evRefine, err := eval.NewEvaluator(e.Idx, mgr, e.Conv, e.Params())
	if err != nil {
		return reads, err
	}
	for b := 0; b < wl.bursts; b++ {
		for _, q := range wl.seq.Refinements {
			res, err := evRefine.Evaluate(eval.DF, q)
			if err != nil {
				return reads, err
			}
			reads[0] += res.PagesRead
		}
	}

	// Phase 2 — cold churn: short unfiltered queries over the rotating
	// hot window plus one cold term per step. Filtering is off so every
	// page of every query term is referenced — the recency-friendly
	// regime where RAP's value function misleads it.
	churnParams := eval.Params{TopN: e.Params().TopN}
	evChurn, err := eval.NewEvaluator(e.Idx, mgr, e.Conv, churnParams)
	if err != nil {
		return reads, err
	}
	for i := 0; i < wl.churnSteps; i++ {
		res, err := evChurn.Evaluate(eval.DF, wl.churnQuery(i))
		if err != nil {
			return reads, err
		}
		reads[1] += res.PagesRead
	}

	// Phase 3 — fault storm: the churn continues, but reads now pass
	// through a seeded transient-fault store with the E23 retry loop
	// and per-query fault budget absorbing the failures.
	fs, err := storage.NewFaultStore(e.Store, seed,
		[]storage.FaultRule{{Kind: storage.FaultTransient, LastPage: -1, Prob: 0.02}})
	if err != nil {
		return reads, err
	}
	gate.inner = fs
	mgr.SetRetryPolicy(buffer.RetryPolicy{
		MaxRetries: 3,
		Backoff:    time.Microsecond,
		VictimWait: time.Second,
	})
	stormParams := churnParams
	stormParams.FaultBudget = 8
	evStorm, err := eval.NewEvaluator(e.Idx, mgr, e.Conv, stormParams)
	if err != nil {
		return reads, err
	}
	for i := 0; i < wl.stormSteps; i++ {
		res, err := evStorm.Evaluate(eval.DF, wl.churnQuery(wl.churnSteps+i))
		if err != nil {
			return reads, err
		}
		reads[2] += res.PagesRead
	}
	return reads, nil
}

// Format prints one table per phase plus the anchor verdict.
func (r *DriftResult) Format(w io.Writer) {
	fmt.Fprintf(w, "E26: workload drift across replacement policies (topic %d, seed %d)\n\n", r.TopicID, r.Seed)
	fmt.Fprintf(w, "one pool per cell, never flushed: %d refinement bursts (working set %d pages)\n",
		r.Bursts, r.WorkingSet)
	fmt.Fprintf(w, "-> %d churn steps (%d hot terms / %d hot pages, %d-term cold pool)\n",
		r.ChurnSteps, r.HotTerms, r.HotPages, r.ColdTerms)
	fmt.Fprintf(w, "-> %d storm steps (churn + 2%% transient faults, retry budget 3)\n", r.StormSteps)
	for p, phase := range r.Phases {
		fmt.Fprintf(w, "\n%s disk reads:\n%8s", phase, "buffers")
		for _, pol := range r.Policies {
			fmt.Fprintf(w, "  %8s", pol)
		}
		fmt.Fprintln(w)
		for i, size := range r.Sizes {
			marker := " "
			if size == r.Anchor {
				marker = "*"
			}
			fmt.Fprintf(w, "%7d%s", size, marker)
			for _, pol := range r.Policies {
				fmt.Fprintf(w, "  %8d", r.Series[pol][i][p])
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\nat the anchor size %d (starred):\n", r.Anchor)
	fmt.Fprintf(w, "  LRU loses the refine phase to RAP:      %v\n", r.LRULosesRefine)
	fmt.Fprintf(w, "  RAP loses the churn phase to LRU:       %v\n", r.RAPLosesChurn)
	fmt.Fprintf(w, "  ADAPTIVE within 10%% of best on refine:  %v\n", r.AdaptiveWithin10Refine)
	fmt.Fprintf(w, "  ADAPTIVE within 10%% of best on churn:   %v\n", r.AdaptiveWithin10Churn)
	fmt.Fprintln(w, "(no static policy wins both phases; the regret-minimizing policy follows")
	fmt.Fprintln(w, " whichever expert the drifting workload currently favors)")
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
