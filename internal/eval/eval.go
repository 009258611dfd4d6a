// Package eval implements the paper's query evaluation algorithms:
//
//   - DF, Persin's Document Filtering (Figure 1): term-at-a-time
//     processing in decreasing-idf order over frequency-sorted
//     inverted lists, with insertion/addition thresholds derived from
//     the running maximum partial score S_max (Equation 5).
//   - BAF, Buffer-Aware Filtering (Figure 2): DF modified to pick, in
//     each round, the unprocessed term with the fewest estimated disk
//     reads d_t = max(p_t − b_t, 0), where p_t comes from the
//     memory-resident conversion table and b_t from the buffer
//     manager; higher idf_t breaks ties.
//
// Setting CAdd = CIns = 0 turns the unsafe optimization off, yielding
// the exhaustive ("FULL") evaluation the paper uses as a safety
// baseline. TA, NRA and MAXSCORE (safe.go) return that exhaustive
// answer exactly while reading only what a bound proof needs.
//
// Every method shares one skeleton: checkQuery validates the query and
// puts it in the one canonical order, readPage is the one page-read
// step, and finish is the one place a Result's totals and flags are
// written. The methods differ in schedule, admission and stop rule.
package eval

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/rank"
)

// ErrEmptyQuery is returned when a query has no terms. Callers test
// with errors.Is; the message is part of the historical API surface.
var ErrEmptyQuery = errors.New("eval: empty query")

// Algorithm selects the query evaluation strategy.
type Algorithm int

const (
	// DF is Persin's Document Filtering: fixed decreasing-idf term order.
	DF Algorithm = iota
	// BAF is Buffer-Aware Filtering: per-round fewest-estimated-reads
	// term order.
	BAF
	// WebLegend is the "legend has it" Web-search optimization of
	// §3.2: if a query term's inverted list is not already buffered,
	// the list "is simply not accessed". Very fast, but it removes all
	// guarantees on result quality — in the paper's worst case a
	// refined query returns the exact same results, ignoring the
	// user's added term. Implemented to measure that trade
	// quantitatively. A fully cold query falls back to DF (there is
	// nothing buffered to prefer).
	WebLegend
	// TA, NRA and MAXSCORE are the rank-safe methods of safe.go:
	// guaranteed bit-identical to exhaustive
	// (unfiltered) DF, terminating as soon as the provisional top-k is
	// provably final, with buffer-residency-driven access order. They
	// ignore the CAdd/CIns filtering constants — exactness is the
	// contract — and record no refinement snapshots. TA advances every
	// live list in residency-ordered lockstep rounds.
	TA
	// NRA adaptively reads the list with a buffer-resident next page,
	// then the largest score bound.
	NRA
	// MAXSCORE scans term-at-a-time in BAF's fewest-estimated-reads
	// order with a max-contribution tie-break, leaving trailing lists
	// unopened once the answer is proven.
	MAXSCORE
)

// Safe reports whether the algorithm is rank-safe: guaranteed to
// return exhaustive DF's exact top-k on a fault-free, uncanceled run.
func (a Algorithm) Safe() bool {
	return a == TA || a == NRA || a == MAXSCORE
}

// String returns the algorithm's conventional name.
func (a Algorithm) String() string {
	switch a {
	case DF:
		return "DF"
	case BAF:
		return "BAF"
	case WebLegend:
		return "WEB"
	case TA:
		return "TA"
	case NRA:
		return "NRA"
	case MAXSCORE:
		return "MAXSCORE"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Params are the evaluator's tuning knobs.
type Params struct {
	// CAdd controls the addition threshold f_add (number of disk
	// reads); CIns controls the insertion threshold f_ins (candidate
	// set size). The paper's WSJ settings are CAdd=0.002, CIns=0.07
	// [Per94]; CAdd=CIns=0 disables filtering entirely.
	CAdd, CIns float64
	// TopN is n, the number of documents returned to the user.
	TopN int
	// ForceFirstPage, when set, makes the evaluator process at least
	// the first page of every query term even if f_max <= f_add —
	// the paper's "easy fix" guaranteeing a newly added term is never
	// ignored outright (§3.2.2).
	ForceFirstPage bool
	// NoIDFTieBreak disables BAF's higher-idf tie-break among terms
	// with equal estimated disk reads, falling back to TermID order.
	// Ablation knob: the paper prescribes the idf tie-break in Figure
	// 2 step 3a; this measures what it buys.
	NoIDFTieBreak bool
	// FaultBudget is the per-query error budget: how many term rounds
	// may be abandoned because their list faulted (a non-context fetch
	// error that survived the buffer's retries) before the query itself
	// errors. A faulted term keeps the pages it already contributed and
	// is marked Faulted in the trace; the query completes as a §2.2
	// anytime partial ranking with Result.Degraded set. 0 — the default
	// — preserves the historical behavior: the first fetch error fails
	// the query.
	FaultBudget int
}

// PaperParams returns the tuning used throughout the paper's
// performance study (§4.1), which Persin calibrated to the WSJ
// collection.
func PaperParams() Params {
	return Params{CAdd: 0.002, CIns: 0.07, TopN: 20}
}

// TunedParams returns the filtering constants tuned to this
// repository's synthetic collection. The paper stresses that c_add
// and c_ins "must be tuned to the document collection and the query
// workload" (§3.1); WSJ queries drive S_max to ~25,000 (Figure 4)
// whereas the synthetic topics reach ~1,000–2,500, so the constants
// are scaled up to produce the same threshold magnitudes (f_add in
// the low units, f_ins in the tens). With these values the filtered
// runs show a ~50x accumulator reduction and no measurable average
// precision loss against exhaustive evaluation, matching the
// qualitative claims of §5.1.1.
func TunedParams() Params {
	return Params{CAdd: 0.005, CIns: 0.15, TopN: 20}
}

// Validate checks parameter sanity: thresholds require
// CIns >= CAdd >= 0 (so that f_ins >= f_add) and a positive result size.
func (p Params) Validate() error {
	if p.CAdd < 0 || p.CIns < 0 {
		return fmt.Errorf("eval: negative tuning constant (CAdd=%g, CIns=%g)", p.CAdd, p.CIns)
	}
	if p.CIns < p.CAdd {
		return fmt.Errorf("eval: CIns (%g) must be >= CAdd (%g) so that f_ins >= f_add", p.CIns, p.CAdd)
	}
	if p.TopN < 1 {
		return fmt.Errorf("eval: TopN %d < 1", p.TopN)
	}
	if p.FaultBudget < 0 {
		return fmt.Errorf("eval: FaultBudget %d < 0", p.FaultBudget)
	}
	return nil
}

// QueryTerm is one term of a natural-language query with its query
// frequency f_{q,t}.
type QueryTerm struct {
	Term postings.TermID
	Fqt  int
}

// Query is a natural-language query: a bag of terms implicitly
// connected by OR (§2.1).
type Query []QueryTerm

// TermTrace records the per-term evaluation detail that the paper's
// Tables 1 and 2 report.
type TermTrace struct {
	Term             postings.TermID
	Name             string
	IDF              float64
	Fqt              int
	ListPages        int     // total pages in the term's inverted list
	SmaxBefore       float64 // S_max prior to processing this term
	FIns, FAdd       float64 // thresholds used for this term
	EstimatedReads   int     // BAF's d_t at selection time; -1 under DF
	PagesProcessed   int
	PagesRead        int // buffer misses while scanning this term
	PagesHit         int // buffer hits while scanning this term
	EntriesProcessed int
	// Elapsed is the wall time spent in this term's round, from
	// threshold computation through the last page scanned (zero for
	// rounds skipped without touching the buffer).
	Elapsed time.Duration
	Skipped bool // true if f_max <= f_add skipped the whole list
	// Truncated is true when the request's context was canceled or
	// expired mid-list: the scan stopped at a page boundary with only
	// the pages counted above processed. A truncated term is the
	// visible edge of an anytime partial result.
	Truncated bool
	// Faulted is true when the term's list scan was abandoned by a
	// fetch error charged to the query's FaultBudget: the pages already
	// processed kept their contribution, the rest of the list was
	// skipped. A faulted term is the visible edge of a degraded result.
	Faulted bool
	// Reused is true when the round was replayed from a refinement
	// snapshot instead of scanning the list (EvaluateResumeContext):
	// the accumulator effects are bit-identical to a cold scan, but no
	// buffer traffic happened, so the page and entry counters above are
	// zero. The threshold fields (SmaxBefore, FIns, FAdd) keep the
	// values of the original scan — a cold run would recompute the
	// same ones.
	Reused bool
}

// Result is the outcome of evaluating one query.
type Result struct {
	// Top holds the n highest-scoring documents, best first.
	Top []rank.ScoredDoc
	// Accumulators is the candidate set size |A| at the end of the
	// query (the paper's memory-requirement metric).
	Accumulators int
	// EntriesProcessed counts (d, f_dt) entries examined (the paper's
	// CPU-cost proxy).
	EntriesProcessed int
	// PagesProcessed counts inverted-list pages touched (hits+misses).
	PagesProcessed int
	// PagesRead counts buffer misses, i.e. actual disk reads.
	PagesRead int
	// SelectionInquiries counts the residency (b_t) inquiries a
	// buffer-aware schedule made to the buffer manager: BAF's, T(T+1)/2
	// in the worst case, and the safe methods' schedule probes.
	SelectionInquiries int
	// Smax is the final maximum unnormalized accumulator value.
	Smax float64
	// Elapsed is the wall time of the whole evaluation, including the
	// final ranking step; the per-round times in Trace sum to less.
	Elapsed time.Duration
	// Partial is true when the evaluation was cut short by context
	// cancellation or deadline expiry. Top still holds a valid ranking
	// of everything accumulated so far — DF and BAF are anytime
	// algorithms: stopping after any term round (or any page within a
	// round) leaves a legal, if less refined, top-n. The Trace shows
	// which lists were cut short (Truncated) and which were never
	// reached (absent).
	Partial bool
	// Degraded is true when at least one term round was abandoned by a
	// fetch error within the query's FaultBudget: the query completed
	// and Top is a legal anytime ranking, but one or more lists
	// contributed fewer pages than a fault-free run would have. The
	// Trace shows which (Faulted).
	Degraded bool
	// Faults counts the term rounds abandoned under the FaultBudget.
	Faults int
	// ReusedRounds counts the term rounds replayed from a carried
	// refinement snapshot instead of being scanned
	// (EvaluateResumeContext); 0 for cold evaluations. Replayed rounds
	// contribute nothing to the page and entry counters — skipping
	// that work is the point.
	ReusedRounds int
	// Cached is true when the result was served verbatim from a
	// refinement result cache without running an evaluation: the
	// ranking fields (Top, Accumulators, Smax) are those of the
	// original evaluation, the cost counters are zero (no I/O or
	// scanning happened), and Trace is nil.
	Cached bool
	// Epoch identifies the index generation the evaluation ran
	// against. The evaluator itself does not know about epochs — the
	// serving layer (Session, Engine) stamps it after binding the query
	// to one published index view, which is what lets callers check
	// that an answer produced during a live merge came wholly from one
	// generation. 0 for static indexes.
	Epoch uint64
	// Trace holds per-term detail in processing order.
	Trace []TermTrace
}

// Evaluator evaluates queries against an index through a buffer
// manager. Its fields are read-only after construction and every
// Evaluate call keeps its accumulation state (S_max, accumulators,
// thresholds, counters) in call-confined storage, so an Evaluator is
// re-entrant: concurrent Evaluate calls are safe whenever Buf is (all
// Pool implementations in internal/buffer are). Per-user sessions
// still serialize their own refinement steps for ordering, not safety.
type Evaluator struct {
	Idx    *postings.Index
	Buf    buffer.Pool
	Conv   *postings.ConversionTable
	Params Params
}

// NewEvaluator wires an evaluator together, validating parameters.
func NewEvaluator(ix *postings.Index, buf buffer.Pool, conv *postings.ConversionTable, p Params) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ix == nil || buf == nil || conv == nil {
		return nil, fmt.Errorf("eval: nil index, buffer manager or conversion table")
	}
	return &Evaluator{Idx: ix, Buf: buf, Conv: conv, Params: p}, nil
}

// Evaluate runs the query under the given algorithm and returns the
// ranked answer plus execution statistics. It is EvaluateContext with
// a background context: never canceled, never bounded.
func (e *Evaluator) Evaluate(algo Algorithm, q Query) (*Result, error) {
	return e.EvaluateContext(context.Background(), algo, q)
}

// EvaluateContext runs the query under a request context. The context
// is checked at every term round and every page boundary, and the
// buffer fetch underneath honors it mid-disk-read, so a canceled or
// expired request stops within one page read with every frame
// unpinned.
//
// When the context ends mid-evaluation, EvaluateContext returns the
// anytime partial result ALONGSIDE the context's error: a non-nil
// *Result with Partial set, holding the top-n over everything
// accumulated so far plus the per-term trace (cut-short lists are
// marked Truncated). DF and BAF process terms in rounds and may stop
// after any round with a valid, if less refined, answer (§2.2's
// filtering loop) — the caller chooses whether to surface the partial
// answer or only the error. Any other error mid-evaluation returns a
// Result holding no answer, only the cost counters and trace of the
// work done before it, so the pages it read can still be charged.
// Errors before any page is read (an invalid query, a dead context)
// return a nil Result.
func (e *Evaluator) EvaluateContext(ctx context.Context, algo Algorithm, q Query) (*Result, error) {
	res, _, err := e.evaluate(ctx, algo, q, nil, false)
	return res, err
}

// evaluate is the shared core of EvaluateContext and
// EvaluateResumeContext: run the query, optionally resuming the DF
// prefix recorded in prev, optionally recording a snapshot of the new
// trajectory (DF only — see Snapshot for why the other algorithms
// cannot be resumed exactly).
func (e *Evaluator) evaluate(ctx context.Context, algo Algorithm, q Query, prev *Snapshot, record bool) (*Result, *Snapshot, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A request that can only fail, or that is already dead, must not
	// perturb the shared query registry (RAP re-keys replacement values
	// on every announcement).
	if algo < DF || algo > MAXSCORE {
		return nil, nil, fmt.Errorf("eval: unknown algorithm %d", int(algo))
	}
	q, err := e.checkQuery(q)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Announce the query to the buffer manager so RAP can re-key its
	// replacement values (no-op for LRU/MRU). Resumed evaluations
	// announce exactly like cold ones: the full query is what the
	// user is running, whatever prefix of it we can avoid re-scanning.
	weights := make(buffer.QueryWeights, len(q))
	for _, qt := range q {
		weights[qt.Term] = rank.QueryWeight(qt.Fqt, e.Idx.IDF(qt.Term))
	}
	e.Buf.SetQuery(weights)

	start := time.Now()
	if algo.Safe() {
		// The rank-safe family returns exhaustive DF's exact answer; it
		// has no accumulator-replay snapshots (nothing to resume — the
		// method already reads the minimum it can prove sufficient), so
		// prev/record are ignored and refinement falls back to cold safe
		// evaluations plus the engine's result cache.
		r := e.newSafeRun(algo, q)
		err = r.evaluate(ctx)
		finish(r.res, err, start)
		return r.res, nil, err
	}

	st := &evalState{
		acc:       make(map[postings.DocID]float64, 64),
		res:       &Result{},
		recording: record && algo == DF,
	}
	switch algo {
	case DF:
		if p := e.resumePrefix(q, prev); p > 0 {
			e.replay(prev, p, st)
		}
		err = e.runOrdered(ctx, q[st.res.ReusedRounds:], st)
	case BAF:
		err = e.runBAF(ctx, q, st)
	case WebLegend:
		err = e.runWebLegend(ctx, q, st)
	}
	if answered(err) {
		// Steps 5-6: normalize by W_d and pick the n best — on a context
		// error, the anytime answer over what was accumulated.
		st.res.Top = rank.TopN(st.acc, e.Idx.DocLen, e.Params.TopN)
		st.res.Accumulators = len(st.acc)
		st.res.Smax = st.smax
	}
	finish(st.res, err, start)
	// A failed evaluation returns no snapshot — a truncated trajectory
	// is not a legal resume point, and the caller keeps its previous one.
	var snap *Snapshot
	if err == nil && st.recording {
		snap = &Snapshot{algo: algo, params: e.Params, rounds: st.rec}
	}
	return st.res, snap, err
}

// checkQuery validates q — non-empty, term ids in range, query
// frequencies >= 1, no duplicate terms — and returns a copy in the one
// canonical order every method starts from: decreasing idf_t (shortest
// lists first), ties broken by TermID. This is Figure 1's DF processing
// order, the order snapshots record and the safe methods' canonical
// list positions. It is a pure function of the query and the index —
// never of buffer state — which is what makes a DF trajectory
// resumable: any query sharing a prefix of this order shares the state
// trajectory through that prefix.
func (e *Evaluator) checkQuery(q Query) (Query, error) {
	if len(q) == 0 {
		return nil, ErrEmptyQuery
	}
	for _, qt := range q {
		if int(qt.Term) < 0 || int(qt.Term) >= len(e.Idx.Terms) {
			return nil, fmt.Errorf("eval: term id %d out of range", qt.Term)
		}
		if qt.Fqt < 1 {
			return nil, fmt.Errorf("eval: term %q has query frequency %d < 1", e.Idx.Terms[qt.Term].Name, qt.Fqt)
		}
	}
	ordered := slices.Clone(q)
	slices.SortFunc(ordered, func(a, b QueryTerm) int {
		if c := cmp.Compare(e.Idx.IDF(b.Term), e.Idx.IDF(a.Term)); c != 0 {
			return c
		}
		return cmp.Compare(a.Term, b.Term)
	})
	// Sorted, a duplicate term sits next to its twin.
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Term == ordered[i-1].Term {
			return nil, fmt.Errorf("eval: duplicate query term %q", e.Idx.Terms[ordered[i].Term].Name)
		}
	}
	return ordered, nil
}

// isContextErr reports whether err is the request context ending.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// answered reports whether an evaluation that ended with err owes its
// caller a ranking: after a clean finish, and after a context error —
// the anytime answer. Any other error leaves the Result with no answer,
// only the cost counters and trace of the work done before it.
func answered(err error) bool { return err == nil || isContextErr(err) }

// finish is the one Result writer every method ends in. The method has
// written its trace rows, its answer (when answered) and Faults;
// finish totals the cost counters from the trace and stamps the flags
// and the wall time.
func finish(res *Result, err error, start time.Time) {
	for i := range res.Trace {
		tr := &res.Trace[i]
		res.PagesProcessed += tr.PagesProcessed
		res.PagesRead += tr.PagesRead
		res.EntriesProcessed += tr.EntriesProcessed
	}
	res.Partial = err != nil && answered(err)
	res.Degraded = res.Faults > 0
	res.Elapsed = time.Since(start)
}

// readPage is the one page-read step of every method: fetch page i of
// the trace row's term list and book it on the row — a hit or a miss,
// and the page's entries (a scan that stops mid-page gives back the
// ones it did not examine). The caller unpins the returned frame.
//
// A nil frame ends the list's scan. On a context error the row is
// marked Truncated and the error returned: the fetch aborts mid-read,
// so cancellation latency is bounded by a single page read. Any other
// fetch error marks the row Faulted; within Params.FaultBudget it is
// charged to res.Faults and absorbed (nil error — the list is
// abandoned, the pages already scanned keep their contribution, the
// same legal §2.2 stopping point a truncation uses), past it the
// query fails with it.
func (e *Evaluator) readPage(ctx context.Context, tr *TermTrace, i int, res *Result) (*buffer.Frame, error) {
	frame, missed, err := e.Buf.FetchContext(ctx, e.Idx.PageOf(tr.Term, i))
	if err != nil {
		if isContextErr(err) {
			tr.Truncated = true
			return nil, err
		}
		tr.Faulted = true
		if res.Faults < e.Params.FaultBudget {
			res.Faults++
			return nil, nil
		}
		return nil, fmt.Errorf("eval: term %q page %d: %w", tr.Name, i, err)
	}
	tr.PagesProcessed++
	if missed {
		tr.PagesRead++
	} else {
		tr.PagesHit++
	}
	tr.EntriesProcessed += len(frame.Data())
	return frame, nil
}

// evalState carries DF/BAF's accumulation state across terms. All of
// it is confined to one Evaluate call: nothing here is read from shared
// pool counters, which is what makes sessions re-entrant and their
// statistics exact when many queries run in parallel on one pool.
type evalState struct {
	acc  map[postings.DocID]float64
	smax float64
	res  *Result

	// Snapshot recording (EvaluateResumeContext). When recording is
	// set, every accumulator assignment of the current round is
	// appended to curWrites in chronological order, and processTerm
	// finalizes each round into rec. Replaying those assignments in
	// order reproduces the exact floating-point accumulator state — the
	// foundation of the bit-identical resume guarantee.
	recording bool
	rec       []roundRec
	curWrites []accWrite
}

// noteWrite records one accumulator assignment for the round being
// processed (no-op unless recording).
func (st *evalState) noteWrite(doc postings.DocID, val float64) {
	if st.recording {
		st.curWrites = append(st.curWrites, accWrite{Doc: doc, Val: val})
	}
}

// endRound finalizes the current round's record. clean marks a round
// whose full effect was applied (not truncated, not faulted, not cut
// by the fault budget): only clean rounds are legal resume prefix
// material.
func (st *evalState) endRound(qt QueryTerm, clean bool, tr TermTrace) {
	if !st.recording {
		return
	}
	st.rec = append(st.rec, roundRec{
		Term:      qt.Term,
		Fqt:       qt.Fqt,
		SmaxAfter: st.smax,
		Writes:    st.curWrites,
		Clean:     clean,
		Trace:     tr,
	})
	st.curWrites = nil
}

// thresholds computes (f_ins, f_add) for term t per Equation 5:
//
//	f_ins = c_ins·S_max / (f_{q,t}·idf_t²)
//	f_add = c_add·S_max / (f_{q,t}·idf_t²)
//
// With S_max = 0, or filtering turned off (c = 0), a threshold is 0
// and every entry passes. Otherwise a non-positive idf (a term
// appearing in every document) yields a +Inf threshold, correctly
// making the term contribute nothing once filtering has engaged.
func (e *Evaluator) thresholds(t postings.TermID, fqt int, smax float64) (fins, fadd float64) {
	idf := e.Idx.IDF(t)
	denom := float64(fqt) * idf * idf
	div := func(c float64) float64 {
		num := c * smax
		if num == 0 {
			return 0
		}
		if denom <= 0 {
			return math.Inf(1)
		}
		return num / denom
	}
	return div(e.Params.CIns), div(e.Params.CAdd)
}

// processTerm runs Figure 1 step 4 (equivalently Figure 2 steps 3(b)-(d))
// for one term, mutating the accumulator state and appending a trace row.
//
// Pages are read through readPage. When the scan ends on a context
// error or a fault past the budget, the trace row is still appended
// (the partial answer, or the cost-only failure, must account for the
// work done) and the error is returned; the pinned frame is always
// released first.
func (e *Evaluator) processTerm(ctx context.Context, qt QueryTerm, estReads int, st *evalState) error {
	tm := &e.Idx.Terms[qt.Term]
	roundStart := time.Now()
	fins, fadd := e.thresholds(qt.Term, qt.Fqt, st.smax)
	tr := TermTrace{
		Term:           qt.Term,
		Name:           tm.Name,
		IDF:            tm.IDF,
		Fqt:            qt.Fqt,
		ListPages:      tm.NumPages,
		SmaxBefore:     st.smax,
		FIns:           fins,
		FAdd:           fadd,
		EstimatedReads: estReads,
	}

	// Step 4b: skip the whole list when no document can pass the
	// addition threshold.
	skip := float64(tm.FMax) <= fadd
	if skip && !e.Params.ForceFirstPage {
		tr.Skipped = true
		tr.Elapsed = time.Since(roundStart)
		st.res.Trace = append(st.res.Trace, tr)
		// A skip is a complete, deterministic round effect (no writes):
		// it is clean resume material.
		st.endRound(qt, true, tr)
		return nil
	}

	wqt := rank.QueryWeight(qt.Fqt, tm.IDF)
	var roundErr error

scan:
	for i := 0; i < tm.NumPages; i++ {
		frame, err := e.readPage(ctx, &tr, i, st.res)
		if frame == nil {
			// A fault within the budget goes on to the remaining terms
			// as a degraded ranking; anything else ends the query.
			roundErr = err
			break
		}
		entries := frame.Data()
		for j, entry := range entries {
			switch {
			case float64(entry.Freq) > fins:
				// Steps 4(c)i-ii: add to, or insert into, the
				// candidate set.
				ad := st.acc[entry.Doc] + rank.DocWeight(entry.Freq, tm.IDF)*wqt
				st.acc[entry.Doc] = ad
				st.noteWrite(entry.Doc, ad)
				if ad > st.smax {
					st.smax = ad
				}
			case float64(entry.Freq) > fadd:
				// Step 4(c)iii: only documents already in the
				// candidate set receive the partial similarity.
				if old, ok := st.acc[entry.Doc]; ok {
					ad := old + rank.DocWeight(entry.Freq, tm.IDF)*wqt
					st.acc[entry.Doc] = ad
					st.noteWrite(entry.Doc, ad)
					if ad > st.smax {
						st.smax = ad
					}
				}
			default:
				// Step 4(c)iv: frequency ordering guarantees no later
				// entry can pass; stop scanning this list.
				tr.EntriesProcessed -= len(entries) - j - 1
				e.Buf.Unpin(frame)
				break scan
			}
		}
		e.Buf.Unpin(frame)
	}

	tr.Elapsed = time.Since(roundStart)
	st.res.Trace = append(st.res.Trace, tr)
	// A truncated or faulted round applied only part of its list: its
	// writes are real (the partial answer accounts for them) but the
	// round is not a legal resume point, so it is marked not-clean and
	// the prefix matcher stops in front of it.
	st.endRound(qt, !tr.Truncated && !tr.Faulted, tr)
	return roundErr
}

// runOrdered is Figure 1's round loop over terms in canonical order.
// The context is re-checked at every term round — the paper's
// filtering loop is round-structured, which is what makes stopping
// between rounds a legal (anytime) termination.
func (e *Evaluator) runOrdered(ctx context.Context, ordered Query, st *evalState) error {
	for _, qt := range ordered {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := e.processTerm(ctx, qt, -1, st); err != nil {
			return err
		}
	}
	return nil
}

// runBAF is Figure 2: in each round, select the unmarked term with the
// lowest estimated disk reads d_t = max(p_t − b_t, 0), breaking ties
// by higher idf_t (then TermID). The choice is a total order, so it
// does not depend on the order q arrives in. f_add and p_t are cached
// per term and recomputed only when S_max has changed since they were
// computed; b_t is asked of the buffer manager on every round, as the
// paper prescribes.
func (e *Evaluator) runBAF(ctx context.Context, q Query, st *evalState) error {
	n := len(q)
	done := make([]bool, n)
	cachedFAdd := make([]float64, n)
	cachedPt := make([]int, n)
	lastSmax := math.Inf(-1) // force initial computation

	refresh := func() {
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			qt := q[i]
			_, fadd := e.thresholds(qt.Term, qt.Fqt, st.smax)
			cachedFAdd[i] = fadd
			if float64(e.Idx.Terms[qt.Term].FMax) <= fadd {
				cachedPt[i] = 0 // the whole list would be skipped
			} else {
				cachedPt[i] = e.Conv.Pages(qt.Term, fadd)
			}
		}
		lastSmax = st.smax
	}

	for remaining := n; remaining > 0; remaining-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		if st.smax != lastSmax {
			refresh()
		}
		best := -1
		bestDt := 0
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			st.res.SelectionInquiries++
			bt := e.Buf.ResidentPages(q[i].Term)
			dt := cachedPt[i] - bt
			if dt < 0 {
				dt = 0
			}
			if best == -1 || e.betterBAF(dt, q[i].Term, bestDt, q[best].Term) {
				best, bestDt = i, dt
			}
		}
		done[best] = true
		if err := e.processTerm(ctx, q[best], bestDt, st); err != nil {
			return err
		}
	}
	return nil
}

// runWebLegend processes, in canonical (decreasing-idf) order, ONLY
// the query terms with at least one buffer-resident page; unbuffered
// terms are not accessed at all. A completely cold query degenerates
// to DF. Ignored terms appear in the trace with Skipped set and an
// EstimatedReads of 0, so callers can count how often user intent was
// discarded.
func (e *Evaluator) runWebLegend(ctx context.Context, q Query, st *evalState) error {
	anyBuffered := false
	buffered := make([]bool, len(q))
	for i, qt := range q {
		if e.Buf.ResidentPages(qt.Term) > 0 {
			buffered[i] = true
			anyBuffered = true
		}
	}
	if !anyBuffered {
		return e.runOrdered(ctx, q, st)
	}
	for i, qt := range q {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !buffered[i] {
			tm := &e.Idx.Terms[qt.Term]
			st.res.Trace = append(st.res.Trace, TermTrace{
				Term:      qt.Term,
				Name:      tm.Name,
				IDF:       tm.IDF,
				Fqt:       qt.Fqt,
				ListPages: tm.NumPages,
				Skipped:   true,
			})
			continue
		}
		if err := e.processTerm(ctx, qt, -1, st); err != nil {
			return err
		}
	}
	return nil
}

// betterBAF reports whether the candidate term should be selected over
// the incumbent: fewer estimated reads first, then (unless disabled
// for ablation) higher idf, then lower TermID.
func (e *Evaluator) betterBAF(dt int, term postings.TermID, curDt int, curTerm postings.TermID) bool {
	if dt != curDt {
		return dt < curDt
	}
	if !e.Params.NoIDFTieBreak {
		idf, curIdf := e.Idx.IDF(term), e.Idx.IDF(curTerm)
		if idf != curIdf {
			return idf > curIdf
		}
	}
	return term < curTerm
}
