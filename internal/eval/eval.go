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
// baseline. MAXSCORE, the exact method, is that evaluation: on this
// frequency-sorted layout, with no per-document random access, a
// termination proof cannot show a document absent from a list before
// the list is read, so a rank-safe schedule reads and processes
// practically every page FULL does (DESIGN §14) and its bookkeeping only
// adds cost.
//
// Every method is a schedule, an admission and a stop rule over one
// page loop (run.scan): check the context, let the schedule pick a
// list, readPage, admit the page's entries (run.filter), unpin.
// checkQuery puts the query in the canonical order the run's lists
// keep, newRow is the one trace-row constructor, run.evaluate the one
// answer writer, and finish totals the Result.
//
//	method    schedule                             admission         stop rule
//	DF        next canonical list                  threshold switch  per list: f <= f_add
//	WEB       DF's, over lists resident at start   threshold switch  per list: f <= f_add
//	BAF       fewest d_t, higher idf on ties       threshold switch  per list: f <= f_add
//	MAXSCORE  DF's, with CAdd = CIns = 0           every entry       end of list
//
// Every method scans a list term-at-a-time once picked.
package eval

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
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
	// MAXSCORE is exact evaluation: Figure 1 with CAdd = CIns = 0
	// whatever the Params say, so its answer is the exhaustive ("FULL")
	// one by construction; Results and metric labels carry its own name.
	MAXSCORE
)

// Safe reports whether the algorithm is rank-safe: guaranteed to
// return exhaustive DF's exact top-k on a fault-free, uncanceled run.
func (a Algorithm) Safe() bool {
	return a == MAXSCORE
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

// Validate checks parameter sanity: thresholds require finite
// CIns >= CAdd >= 0 (so that f_ins >= f_add) and a positive result size.
func (p Params) Validate() error {
	// NaN fails every comparison below and +Inf passes them.
	if math.IsNaN(p.CAdd) || math.IsNaN(p.CIns) || math.IsInf(p.CAdd, 0) || math.IsInf(p.CIns, 0) {
		return fmt.Errorf("eval: non-finite tuning constant (CAdd=%g, CIns=%g)", p.CAdd, p.CIns)
	}
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
	// Elapsed is the wall time of a round, from its opening
	// (thresholds, stop test) through its last page; a round closed
	// unread is stamped too.
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
	// in the worst case; WEB's, one per query term. DF and MAXSCORE make
	// none.
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
//
// Every method admits, one pass per page and no call per entry, into an
// accumulator array — one float64 per document behind a presence
// bitmap (acc.go). The array, the run with its lists, the query's
// canonical copy, its announced weights and the top-k heap are one
// scratch, taken from a package-level sync.Pool and handed back reset
// when the call returns, so a warm evaluation allocates only its
// Result, Trace and Top. A scratch is owned by one call at a time and is
// always pooled, whatever its size; there is no cap.
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
	if ctx == nil {
		ctx = context.Background()
	}
	// A request that can only fail, or that is already dead, must not
	// perturb the shared query registry (RAP re-keys replacement values
	// on every announcement).
	if algo < DF || algo > MAXSCORE {
		return nil, fmt.Errorf("eval: unknown algorithm %d", int(algo))
	}
	p := e.Params
	if algo.Safe() {
		// Exact evaluation is Figure 1 unfiltered, the FULL baseline.
		algo, p.CAdd, p.CIns = DF, 0, 0
	}
	s := getScratch(e.Idx.NumDocs)
	defer putScratch(s)
	q, err := e.checkQuery(q, s.query)
	if err != nil {
		return nil, err
	}
	s.query = q
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Announce the query to the buffer manager so RAP can re-key its
	// replacement values (no-op for LRU/MRU). The pool copies the map.
	if s.weights == nil {
		s.weights = make(buffer.QueryWeights, len(q))
	}
	clear(s.weights)
	for _, qt := range q {
		s.weights[qt.Term] = rank.QueryWeight(qt.Fqt, e.Idx.IDF(qt.Term))
	}
	e.Buf.SetQuery(s.weights)

	start := time.Now()
	r := e.newRun(s, algo, p, q)
	err = r.evaluate(ctx)
	finish(r.res, err, start)
	return r.res, err
}

// scratch is one evaluation's working memory: the run and its lists,
// the accumulator array, the query in canonical order, the weights
// announced to the pool and the top-k heap. Nothing in it outlives the
// call, so it goes back to scratches when the call returns.
type scratch struct {
	run     run
	lists   []listState
	acc     accTable
	query   Query
	weights buffer.QueryWeights
	top     rank.TopK
}

// scratches recycles scratch across evaluations. A sync.Pool and not an
// Evaluator field, because concurrent evaluations on one Evaluator each
// need their own.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch whose accumulator array covers numDocs
// documents.
func getScratch(numDocs int) *scratch {
	s := scratches.Get().(*scratch)
	s.acc.fit(numDocs)
	return s
}

// putScratch empties s, lets go of the index and Result it points into,
// and returns it to the pool.
func putScratch(s *scratch) {
	s.acc.reset()
	clear(s.lists)
	s.run = run{}
	scratches.Put(s)
}

// checkQuery validates q — non-empty, term ids in range, query
// frequencies >= 1, no duplicate terms — and returns a copy, in dst's
// storage, in the one canonical order every method starts from:
// decreasing idf_t (shortest lists first), ties broken by TermID. This
// is Figure 1's DF processing order, a pure function of the query and
// the index — never of buffer state.
func (e *Evaluator) checkQuery(q, dst Query) (Query, error) {
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
	ordered := append(dst[:0], q...)
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

// listState is one query list of a run, held in canonical order (the
// order checkQuery returns).
type listState struct {
	qt  QueryTerm
	tm  *postings.TermMeta
	idf float64
	wqt float64
	// fins and fadd are the round's thresholds, fixed when the round
	// opens; pt is BAF's cached p_t.
	fins, fadd float64
	pt         int
	// next is the next unread page; done marks a finished list.
	next int
	done bool
	// cold marks a WEB list with no resident page at query start.
	cold bool
	// tr is the list's trace row, nil until the list is opened.
	tr *TermTrace
}

// run is the state of one evaluation: the query's lists and their
// trace rows, the schedule's state and the accumulators. All of it is
// confined to one Evaluate call — nothing is read from shared pool
// counters — which is what makes evaluations re-entrant and their
// statistics exact when many queries run in parallel on one pool.
type run struct {
	e     *Evaluator
	algo  Algorithm
	p     Params // the Evaluator's, with MAXSCORE's constants zeroed
	res   *Result
	lists []listState
	live  int
	smax  float64
	// sticky is the list the open round scans until it finishes; -1
	// between rounds.
	sticky int

	// The accumulator array and the top-k heap, the scratch's.
	acc *accTable
	sel *rank.TopK

	// The open round's start and S_max at BAF's last p_t refresh.
	roundStart time.Time
	ptSmax     float64
}

// newRun builds, in s, the run for a query already in canonical order
// (checkQuery's output). A list opens when the schedule first picks it.
func (e *Evaluator) newRun(s *scratch, algo Algorithm, p Params, q Query) *run {
	s.lists = slices.Grow(s.lists[:0], len(q))[:len(q)]
	r := &s.run
	*r = run{
		e:      e,
		algo:   algo,
		p:      p,
		res:    &Result{Trace: make([]TermTrace, 0, len(q))},
		lists:  s.lists,
		live:   len(q),
		sticky: -1,
		ptSmax: math.Inf(-1),
		acc:    &s.acc,
		sel:    &s.top,
	}
	for i, qt := range q {
		tm := &e.Idx.Terms[qt.Term]
		r.lists[i] = listState{qt: qt, tm: tm, idf: tm.IDF, wqt: rank.QueryWeight(qt.Fqt, tm.IDF)}
	}
	if algo == WebLegend {
		// WEB reads only the lists with a page resident at query start;
		// a fully cold query falls back to DF.
		warm := false
		for i := range r.lists {
			r.lists[i].cold = r.unreadResident(&r.lists[i]) == 0
			warm = warm || !r.lists[i].cold
		}
		for i := range r.lists {
			r.lists[i].cold = r.lists[i].cold && warm
		}
	}
	return r
}

// newRow appends list pos's trace row to the Result, the one row
// constructor. Rows sit in the order lists open, which is processing
// order. The Trace has room for a row per list from the start, so row
// pointers stay valid.
func (r *run) newRow(pos int) *TermTrace {
	li := &r.lists[pos]
	r.res.Trace = append(r.res.Trace, TermTrace{
		Term:           li.qt.Term,
		Name:           li.tm.Name,
		IDF:            li.idf,
		Fqt:            li.qt.Fqt,
		ListPages:      li.tm.NumPages,
		EstimatedReads: -1,
	})
	li.tr = &r.res.Trace[len(r.res.Trace)-1]
	return li.tr
}

// evaluate runs the page loop and writes the answer, the one answer
// writer: Figure 1 steps 5-6 over the accumulators after a clean
// finish, and the same anytime ranking of everything accumulated after
// a context error; nothing after any other error.
func (r *run) evaluate(ctx context.Context) error {
	err := r.scan(ctx)
	if err != nil && r.sticky >= 0 {
		r.finishList(r.sticky) // the open round, truncated or faulted
	}
	if !answered(err) {
		return err
	}
	if r.acc.n > 0 {
		r.res.Top = r.acc.top(r.e.Idx.DocLen, r.p.TopN, r.sel)
	}
	r.res.Accumulators = r.acc.n
	r.res.Smax = r.smax
	return err
}

// scan is the one page loop every method runs: check the context, let
// the schedule pick a list, read its next page, admit the page's
// entries and unpin, until every list is finished. Inside a round the
// fetch checks the context (readPage); the loop checks it before every
// pick, so a method stops between rounds or mid-list, each a legal
// (anytime) termination.
func (r *run) scan(ctx context.Context) error {
	for r.live > 0 {
		if r.sticky < 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		pos := r.pick()
		if pos < 0 {
			continue
		}
		li := &r.lists[pos]
		frame, err := r.e.readPage(ctx, li.tr, li.next, r.res)
		if frame == nil {
			if err != nil {
				return err
			}
			r.finishList(pos)
			continue
		}
		stop := r.filter(li, frame.Data())
		r.e.Buf.Unpin(frame)
		li.next++
		if stop || li.next == li.tm.NumPages {
			r.finishList(pos)
		}
	}
	return nil
}

// unreadResident is the one residency probe, counted as a selection
// inquiry: how many of the list's unread pages look buffer-resident.
// The pool reports residency per term, not per page, so the pages this
// evaluation already processed are subtracted as the best available
// correction (the same b_t approximation BAF's d_t = p_t − b_t makes).
func (r *run) unreadResident(li *listState) int {
	r.res.SelectionInquiries++
	return max(r.e.Buf.ResidentPages(li.qt.Term)-li.next, 0)
}

// pick is the schedule: the canonical position of the list whose next
// page the loop reads. A round stays on its sticky list until the list
// finishes; then DF and WEB take the next canonical list, BAF the
// fewest estimated reads. pick opens the list it chooses and returns -1
// when the stop rule closes it unread.
func (r *run) pick() int {
	if r.sticky >= 0 {
		return r.sticky
	}
	if r.algo == BAF {
		return r.open(r.fewestReads())
	}
	pos := 0
	for r.lists[pos].done {
		pos++
	}
	return r.open(pos, -1)
}

// fewestReads is Figure 2 step 3a: the unfinished list with the fewest
// estimated disk reads d_t = max(p_t − b_t, 0), p_t from the conversion
// table at the list's f_add — cached, and recomputed only when S_max has
// changed — and b_t its unread resident pages, asked of the buffer
// manager every round, as the paper prescribes. Ties go to the higher
// idf — canonical order — or, under NoIDFTieBreak, the lower TermID.
func (r *run) fewestReads() (best, bestReads int) {
	if r.smax != r.ptSmax {
		for i := range r.lists {
			li := &r.lists[i]
			if li.done {
				continue
			}
			_, fadd := r.thresholds(li)
			li.pt = 0 // the whole list would be skipped
			if float64(li.tm.FMax) > fadd {
				li.pt = r.e.Conv.Pages(li.qt.Term, fadd)
			}
		}
		r.ptSmax = r.smax
	}
	best = -1
	for i := range r.lists {
		li := &r.lists[i]
		if li.done {
			continue
		}
		reads := max(li.pt-r.unreadResident(li), 0)
		if best == -1 || reads < bestReads || reads == bestReads && r.p.NoIDFTieBreak && li.qt.Term < r.lists[best].qt.Term {
			best, bestReads = i, reads
		}
	}
	return best, bestReads
}

// open starts a round on list pos — Figure 1 step 4, Figure 2 steps
// 3(b)-(d) — with its trace row and the thresholds
// derived from the current S_max. The per-list stop rule may close the
// round unread, and open then returns -1: under WEB when the list was
// cold at query start, and in step 4b when no document can pass the
// addition threshold.
func (r *run) open(pos, estReads int) int {
	li := &r.lists[pos]
	r.roundStart = time.Now()
	tr := r.newRow(pos)
	r.sticky = pos
	if li.cold {
		tr.Skipped, tr.EstimatedReads = true, 0
		r.finishList(pos)
		return -1
	}
	li.fins, li.fadd = r.thresholds(li)
	tr.SmaxBefore, tr.FIns, tr.FAdd, tr.EstimatedReads = r.smax, li.fins, li.fadd, estReads
	tr.Skipped = float64(li.tm.FMax) <= li.fadd && !r.p.ForceFirstPage
	if tr.Skipped || li.tm.NumPages == 0 {
		r.finishList(pos)
		return -1
	}
	return pos
}

// filter is Figure 1 step 4(c) over one page, in one pass; it reports
// whether the list's scan stops on this page. A page is runs of equal
// f_dt, so the stop and insertion tests and w_{d,t}·w_{q,t} are worked
// out when a run starts; then each entry takes one bitmap load and is
// added to, inserted (f_dt > f_ins) or skipped, with the table and S_max
// in locals.
func (r *run) filter(li *listState, entries []postings.Entry) bool {
	present, vals := r.acc.present, r.acc.vals
	n, smax := r.acc.n, r.smax
	fadd, fins, idf, wqt := li.fadd, li.fins, li.idf, li.wqt
	f, w, insert := int32(-1), 0.0, false
	stop := len(entries)
	for i, e := range entries {
		if e.Freq != f {
			f = e.Freq
			if float64(f) <= fadd {
				// Step 4(c)iv: frequency ordering guarantees no
				// later entry can pass; stop scanning this list.
				stop = i
				break
			}
			insert = float64(f) > fins
			w = rank.DocWeight(f, idf) * wqt
		}
		d := uint32(e.Doc)
		word, bit := d/64, uint64(1)<<(d%64)
		ad := w
		if present[word]&bit != 0 {
			ad += vals[d]
		} else if insert {
			present[word] |= bit
			n++
		} else {
			continue
		}
		vals[d] = ad
		if ad > smax {
			smax = ad
		}
	}
	r.acc.n, r.smax = n, smax
	if stop == len(entries) {
		return false
	}
	li.tr.EntriesProcessed -= len(entries) - stop - 1
	return true
}

// finishList marks list pos finished and stamps its round's wall time.
func (r *run) finishList(pos int) {
	li := &r.lists[pos]
	li.done = true
	r.live--
	if r.sticky == pos {
		r.sticky = -1
	}
	li.tr.Elapsed = time.Since(r.roundStart)
}

// thresholds computes (f_ins, f_add) for list li at the current S_max
// per Equation 5:
//
//	f_ins = c_ins·S_max / (f_{q,t}·idf_t²)
//	f_add = c_add·S_max / (f_{q,t}·idf_t²)
//
// With S_max = 0, or filtering turned off (c = 0), a threshold is 0
// and every entry passes. Otherwise a non-positive idf (a term
// appearing in every document) yields a +Inf threshold, correctly
// making the term contribute nothing once filtering has engaged.
func (r *run) thresholds(li *listState) (fins, fadd float64) {
	denom := float64(li.qt.Fqt) * li.idf * li.idf
	div := func(c float64) float64 {
		num := c * r.smax
		if num == 0 {
			return 0
		}
		if denom <= 0 {
			return math.Inf(1)
		}
		return num / denom
	}
	return div(r.p.CIns), div(r.p.CAdd)
}
