// Package evalsafe implements the rank-safe top-k evaluator family:
// query evaluation over the frequency-sorted paged inverted lists of
// internal/postings that is guaranteed to return the bit-identical
// top-k — same documents, same float64 scores, same tie order — as an
// exhaustive (unfiltered) DF evaluation, while terminating as soon as
// the provisional answer is provably final.
//
// The paper's DF and BAF trade exactness for fewer page reads; this
// package closes the gap ROADMAP item 2 names, following Fagin's
// TA/NRA early-termination theory and Turtle & Flood's maxscore,
// adapted to this physical layout. Two properties of the layout carry
// the whole design:
//
//  1. Lists are frequency-sorted and paged, and every page's maximum
//     frequency (TermMeta.PageMaxFreq) is memory-resident. After
//     reading pages [0,next) of a list, every still-unread entry has
//     f_dt <= PageMaxFreq[next], so the list's boundary contribution
//     cur_t = DocWeight(PageMaxFreq[next], idf)·w_qt upper-bounds what
//     it can still add to ANY document — known without I/O.
//  2. There is no per-document random access (the layout has no
//     docid-ordered structure), so all three methods use Fagin's
//     sorted-access (NRA-style) bookkeeping: per-candidate partial
//     sums plus upper bounds. The methods differ only in their access
//     SCHEDULE — which list's next page to read — never in their
//     termination proof or their answer.
//
// # Termination invariant
//
// Let K be the k best COMPLETE candidates (a candidate is complete
// when, for every query list, it has either been seen in the list or
// the list is finished — absence cannot be proven from bounds, only
// from exhaustion). Evaluation may stop when
//
//   - |K| = k, and
//   - every other candidate's upper bound strictly loses to K's k-th
//     member under the rank.Before total order (score descending,
//     DocID ascending among ties), and
//   - the best score any UNSEEN document could reach — the sum R of
//     all live boundary contributions over the smallest vector length
//     among non-candidate documents — is strictly below the k-th score
//     (strictly: an unseen document's DocID could win a tie).
//
// Upper bounds are inflated by one part in 10^12 before comparison:
// the bound sum is accumulated in a different order than the true
// score, and IEEE-754 addition is not associative, so an uninflated
// bound could round one ULP below a true score it must dominate. The
// margin exceeds the worst-case relative rounding error of any
// realistic query length by more than a factor of 1000 and costs at
// most a handful of extra page reads near the threshold.
//
// When no early stop is proven the loop simply exhausts every list,
// which degenerates to exactly the exhaustive evaluation — a safe
// method never reads more list pages than unfiltered DF.
//
// # Bit-identical scores
//
// Exhaustive DF builds each accumulator by adding per-term
// contributions in canonical order (idf descending, TermID ascending)
// starting from 0. The schedules here interleave lists, so each
// candidate keeps its per-list contributions as a chain of arena nodes
// sorted by canonical position; absorbing a posting links one node in
// and walks the chain, and that walk IS the canonical replay. The
// answer is ranked under rank.Before, the order rank.TopN selects by.
// Same additions in the same order, same normalization, same tie-break
// — therefore the same bits. (Like postings.Build, this assumes at most
// one entry per document within a list; a second entry is added to the
// first, as DF's sequential scan would.)
//
// # Bookkeeping
//
// All per-evaluation state is a handful of pointer-free slices (see
// cands.go) sized once from the lists' document frequencies, so an
// evaluation allocates a few dozen objects whatever its candidate count
// and the collector scans none of them:
//
//   - an open-addressing DocID → slot table; a slot holds the canonical
//     sum, the ends of the contribution chain and the candidate's
//     CLASS — its seen-mask (⌈lists/64⌉ words), interned, with a count
//     of the candidates that carry it;
//   - completeness per class, not per candidate: a class is complete
//     when its mask covers every live list, so finishing a list is one
//     pass over the distinct masks, and Outcome.Complete is a sum of
//     class counts;
//   - a size-k min-heap of the best complete candidates, fed as each
//     completes, whose root is the proof's k-th member at all times and
//     whose contents are the answer;
//   - the still-ACTIVE candidates (incomplete, not yet bounded away)
//     queue in arrival order, which is slot order, so the queue is a
//     cursor into the slot array. The proof advances it while the
//     candidate at the front provably loses to the k-th, and RETIRES
//     what it passes: a retired candidate is never bounded again and
//     never offered to the heap.
//
// Retirement is sound because it is monotone. A candidate's bound is
// its canonical sum plus the boundary contributions of the live lists
// it is unseen in; reading a page can only move a term from the second
// part to the first at no more than the bound it replaces, or shrink a
// boundary, so the bound never grows (the 10^-12 inflation absorbs the
// re-association of the float sums). The k-th member only improves:
// the heap never shrinks, a member's score never falls, and a
// replacement ranks ahead of what it replaces. So "bound loses to the
// k-th" holds from the moment it is first observed to the end of the
// evaluation, which is also why a retired candidate that later
// completes cannot belong in the heap. The proof therefore costs
// O(candidates passed) — each candidate once per evaluation — plus the
// per-class Σ-unseen-bounds, memoised per proof; a proof that fails
// stops at the first candidate it cannot retire and leaves it at the
// front, where the next proof meets it first.
//
// The proof runs at a fixed cadence: at every page boundary where k
// candidates are complete, except the boundary right after a failed
// proof. Soundness does not depend on when it runs; the cadence only
// decides how many pages late a stop may be noticed (at most one).
//
// # Buffer awareness
//
// The way BAF made DF buffer-aware, the schedules consult the buffer
// pool's per-term residency (Pool.ResidentPages, the paper's b_t)
// before choosing the next access:
//
//   - TA: lockstep rounds — every live list advances one page per
//     round, the classic TA cadence — but within a round, lists whose
//     unread pages look buffer-resident go first.
//   - NRA: fully adaptive — each step reads the list preferring
//     residency, then the largest boundary contribution (shrinking
//     bounds fastest), then canonical order.
//   - Maxscore: term-at-a-time — a chosen list is scanned to
//     exhaustion (checking termination at page boundaries); the next
//     list is chosen by fewest estimated reads first (BAF's rule),
//     with the larger static maximum contribution σ_t breaking ties,
//     so low-σ lists tend never to be opened at all.
//
// Every residency probe is counted as a selection inquiry, like BAF's.
package evalsafe

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/rank"
)

// Schedule selects the access order of a rank-safe evaluation. All
// schedules return identical results; they differ only in which pages
// they read before the termination proof fires.
type Schedule int

const (
	// TA is residency-ordered lockstep: one page per live list per
	// round.
	TA Schedule = iota
	// NRA is fully adaptive: resident next, then largest boundary
	// contribution.
	NRA
	// Maxscore is term-at-a-time in BAF-style fewest-reads order with
	// σ_t tie-break; unopened low-σ lists are the savings.
	Maxscore
)

// String returns the schedule's conventional name.
func (s Schedule) String() string {
	switch s {
	case TA:
		return "TA"
	case NRA:
		return "NRA"
	case Maxscore:
		return "MAXSCORE"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// QueryTerm is one query term with its query frequency f_qt
// (mirroring eval.QueryTerm without importing it — eval depends on
// this package, not the other way around).
type QueryTerm struct {
	Term postings.TermID
	Fqt  int
}

// Options are the evaluation knobs. Rank-safe methods have no
// filtering constants — exactness is the contract.
type Options struct {
	// TopN is k, the answer size (must be >= 1).
	TopN int
	// FaultBudget is the per-query error budget, with the same
	// semantics as eval.Params.FaultBudget: a list whose page fetch
	// fails (non-context error) is abandoned — its pages already read
	// keep their contributions, the remainder counts as finished — and
	// the query completes Degraded. Exactness is guaranteed only for
	// fault-free evaluations; a degraded answer is a legal anytime
	// ranking, exactly like DF's.
	FaultBudget int
}

// TermStats is the per-list execution detail, in canonical
// (idf-descending) order.
type TermStats struct {
	Term             postings.TermID
	Fqt              int
	ListPages        int
	PagesProcessed   int
	PagesRead        int
	PagesHit         int
	EntriesProcessed int
	// Exhausted is true when every page of the list was read.
	Exhausted bool
	// Faulted is true when the list was abandoned under FaultBudget.
	Faulted bool
	// Truncated is true when the context died while fetching this
	// list's next page.
	Truncated bool
}

// Outcome is the result of one rank-safe evaluation.
type Outcome struct {
	// Top is the answer: bit-identical to exhaustive DF's top-k for a
	// fault-free, uncanceled run.
	Top []rank.ScoredDoc
	// Candidates counts every document seen in any list; Complete
	// counts those provably carrying their full score.
	Candidates int
	Complete   int
	// Smax is the largest canonical accumulator value observed. After
	// an exhausted run it equals DF's S_max exactly; after an early
	// termination it is a lower bound (the untouched list tails could
	// have grown a non-winner).
	Smax float64
	// Cost counters, with eval.Result's meanings.
	PagesProcessed     int
	PagesRead          int
	EntriesProcessed   int
	SelectionInquiries int
	// Terminated is true when the bound proof stopped the evaluation
	// before exhausting every list — the pages the proof saved are the
	// unread tails at that moment.
	Terminated bool
	// Partial is true when the context died mid-evaluation: Top is a
	// best-effort ranking of everything seen (the anytime answer), not
	// a proven one.
	Partial bool
	// Faults counts lists abandoned under FaultBudget; Degraded is
	// Faults > 0.
	Faults   int
	Degraded bool
	// PerTerm holds per-list detail in canonical order.
	PerTerm []TermStats
}

// ubInflate is the safety margin applied to every upper bound before
// it is compared against an exact score; see the package comment.
const ubInflate = 1 + 1e-12

// listState tracks one query list. Lists are held in canonical order
// (idf descending, TermID ascending — DF's processing order), and a
// candidate's contribution node carries its list's canonical position.
type listState struct {
	qt  QueryTerm
	tm  *postings.TermMeta
	idf float64
	wqt float64
	// sigma is the static maximum contribution
	// DocWeight(FMax)·w_qt — maxscore's list ordering key.
	sigma float64
	// bound is the list's boundary contribution: an upper bound on what
	// any still-unread entry can add to a document's accumulator,
	// DocWeight(PageMaxFreq[next])·w_qt. Zero once the list is finished.
	bound float64
	// next is the next unread page; done marks a finished list
	// (exhausted or faulted).
	next int
	done bool
	// solo is the class of candidates seen in this list only (-1 until
	// the first one appears).
	solo int32
	st   TermStats
}

// run is the per-evaluation state; everything is call-confined, so
// concurrent evaluations on one (index, pool) pair are safe whenever
// the pool is.
type run struct {
	ix    *postings.Index
	buf   buffer.Pool
	sched Schedule
	opts  Options

	lists []listState
	live  int
	// liveMask has bit i set while canonical list i is unfinished.
	liveMask []uint64
	cands    candTable
	classes  classTable
	// top holds the k best complete candidates. The active candidates
	// — incomplete, not yet retired by a proof — queue in arrival
	// order, which is slot order: every slot before firstActive is
	// settled or retired, and the proof advances it.
	top         topK
	firstActive int
	// complete counts candidates whose class is complete.
	complete int
	smax     float64
	faults   int
	out      *Outcome

	// docsByLen cursor: the first index whose document is not yet a
	// candidate (documents only ever become candidates, so it only
	// moves forward).
	dblCursor int

	// skipProof is set by a failed proof and consumed by the next page
	// boundary; proofs counts full proofs attempted, gen stamps the
	// per-class bound memo of the proof in progress.
	skipProof bool
	proofs    int
	gen       int32

	// Schedule state: TA's current round (a buffer reused across
	// rounds) and maxscore's sticky list.
	round     []roundEntry
	roundHead int
	sticky    int
}

// roundEntry is one list of a TA round with its residency estimate.
type roundEntry struct{ idx, resident int }

// Evaluate runs one rank-safe evaluation of q under the schedule. The
// query must be non-empty with valid term ids, positive query
// frequencies and no duplicate terms (eval.checkQuery's contract; a
// defensive subset is re-checked here). The context is honored at
// every page boundary; on a context error the partial Outcome is
// returned alongside it, like eval.EvaluateContext's anytime
// contract. Any other fetch error beyond FaultBudget returns an Outcome
// with no answer, only the cost counters of the pages read before it.
// A request that fails validation returns a nil Outcome.
func Evaluate(ctx context.Context, ix *postings.Index, buf buffer.Pool, q []QueryTerm, sched Schedule, opts Options) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := newRun(ix, buf, q, sched, opts)
	if err != nil {
		return nil, err
	}
	return r.evaluate(ctx)
}

// newRun validates the request and builds the evaluation state.
func newRun(ix *postings.Index, buf buffer.Pool, q []QueryTerm, sched Schedule, opts Options) (*run, error) {
	if len(q) == 0 {
		return nil, errors.New("evalsafe: empty query")
	}
	if opts.TopN < 1 {
		return nil, fmt.Errorf("evalsafe: TopN %d < 1", opts.TopN)
	}
	if opts.FaultBudget < 0 {
		return nil, fmt.Errorf("evalsafe: FaultBudget %d < 0", opts.FaultBudget)
	}
	r := &run{
		ix:     ix,
		buf:    buf,
		sched:  sched,
		opts:   opts,
		top:    topK{k: opts.TopN},
		out:    &Outcome{},
		sticky: -1,
	}
	if err := r.initLists(q); err != nil {
		return nil, err
	}
	return r, nil
}

// evaluate is the page loop: prove, pick, read, until the proof fires
// or every list is finished.
func (r *run) evaluate(ctx context.Context) (*Outcome, error) {
	for r.live > 0 {
		if err := ctx.Err(); err != nil {
			return r.partial(err)
		}
		if r.proven() {
			r.out.Terminated = true
			break
		}
		if err := r.readPage(ctx, r.pickNext()); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return r.partial(err)
			}
			r.fillStats()
			return r.out, err
		}
	}
	return r.finalize(), nil
}

// initLists builds the canonical list states and sizes the candidate
// state from them. Zero-page lists (a shard term whose postings live
// in other partitions, or a df-carrying term with no local pages)
// start finished: nothing local to read, nothing to contribute, and
// absence from them is proven vacuously.
func (r *run) initLists(q []QueryTerm) error {
	r.lists = make([]listState, len(q))
	postingsBound := 0
	for i, qt := range q {
		if int(qt.Term) < 0 || int(qt.Term) >= len(r.ix.Terms) {
			return fmt.Errorf("evalsafe: term id %d out of range", qt.Term)
		}
		if qt.Fqt < 1 {
			return fmt.Errorf("evalsafe: term %d has query frequency %d < 1", qt.Term, qt.Fqt)
		}
		tm := &r.ix.Terms[qt.Term]
		idf := tm.IDF
		wqt := rank.QueryWeight(qt.Fqt, idf)
		r.lists[i] = listState{
			qt:    qt,
			tm:    tm,
			idf:   idf,
			wqt:   wqt,
			sigma: rank.DocWeight(tm.FMax, idf) * wqt,
			solo:  -1,
			st: TermStats{
				Term:      qt.Term,
				Fqt:       qt.Fqt,
				ListPages: tm.NumPages,
			},
		}
		// A list holds DF entries, and no more than its pages can (a
		// shard's DF may be the global one).
		postingsBound += min(tm.DF, tm.NumPages*r.ix.PageSize)
	}
	sort.SliceStable(r.lists, func(i, j int) bool {
		a, b := &r.lists[i], &r.lists[j]
		if a.idf != b.idf {
			return a.idf > b.idf
		}
		return a.qt.Term < b.qt.Term
	})
	words := (len(q) + 63) / 64
	r.liveMask = make([]uint64, words)
	for i := range r.lists {
		li := &r.lists[i]
		if li.tm.NumPages == 0 {
			li.done = true
			li.st.Exhausted = true
			continue
		}
		li.bound = rank.DocWeight(li.tm.PageMaxFreq[0], li.idf) * li.wqt
		r.liveMask[i/64] |= 1 << (i % 64)
		r.live++
	}
	r.cands.init(min(postingsBound, r.ix.NumDocs), postingsBound)
	r.classes.init(r.liveMask)
	return nil
}

// unreadResident estimates how many of the list's unread pages are
// buffer-resident: the pool reports residency per term, not per page,
// so the pages this evaluation already processed are subtracted as
// the best available correction (the same b_t approximation BAF's
// d_t = p_t − b_t makes). Counted as a selection inquiry.
func (r *run) unreadResident(li *listState) int {
	r.out.SelectionInquiries++
	n := r.buf.ResidentPages(li.qt.Term) - li.next
	if n < 0 {
		return 0
	}
	return n
}

// pickNext chooses the canonical position of the next list to advance
// by one page. At least one list is live when called.
func (r *run) pickNext() int {
	switch r.sched {
	case NRA:
		return r.pickNRA()
	case Maxscore:
		return r.pickMaxscore()
	default:
		return r.pickTA()
	}
}

// pickTA pops the lockstep round queue, rebuilding it — live lists
// ordered by unread residency, then canonical position — whenever a
// round completes.
func (r *run) pickTA() int {
	for {
		for r.roundHead < len(r.round) {
			i := r.round[r.roundHead].idx
			r.roundHead++
			if !r.lists[i].done {
				return i
			}
		}
		if r.round == nil {
			r.round = make([]roundEntry, 0, len(r.lists))
		}
		r.round, r.roundHead = r.round[:0], 0
		for i := range r.lists {
			if r.lists[i].done {
				continue
			}
			// Stable insertion by residency descending: equal residency
			// keeps canonical order.
			e := roundEntry{i, r.unreadResident(&r.lists[i])}
			j := len(r.round)
			r.round = append(r.round, e)
			for ; j > 0 && r.round[j-1].resident < e.resident; j-- {
				r.round[j] = r.round[j-1]
			}
			r.round[j] = e
		}
	}
}

// pickNRA chooses adaptively: a buffer-resident next page first, then
// the largest boundary contribution (the access that shrinks upper
// bounds fastest), then canonical order.
func (r *run) pickNRA() int {
	best := -1
	bestResident := false
	bestBound := 0.0
	for i := range r.lists {
		li := &r.lists[i]
		if li.done {
			continue
		}
		resident := r.unreadResident(li) > 0
		if best == -1 ||
			(resident && !bestResident) ||
			(resident == bestResident && li.bound > bestBound) {
			best, bestResident, bestBound = i, resident, li.bound
		}
	}
	return best
}

// pickMaxscore keeps scanning the current list until it finishes,
// then selects the next by fewest estimated disk reads (BAF's rule),
// ties broken by larger σ_t, then canonical order. The termination
// check between pages is what lets trailing low-σ lists go unopened.
func (r *run) pickMaxscore() int {
	if r.sticky >= 0 && !r.lists[r.sticky].done {
		return r.sticky
	}
	best := -1
	bestReads := 0
	for i := range r.lists {
		li := &r.lists[i]
		if li.done {
			continue
		}
		reads := li.tm.NumPages - li.next - r.unreadResident(li)
		if reads < 0 {
			reads = 0
		}
		if best == -1 || reads < bestReads ||
			(reads == bestReads && li.sigma > r.lists[best].sigma) {
			best, bestReads = i, reads
		}
	}
	r.sticky = best
	return best
}

// readPage fetches and absorbs the next page of the list at canonical
// position pos. Context errors propagate (the caller finalizes the
// partial answer); fetch faults are charged to the budget, finishing
// the list Degraded-style, and fail the query once the budget is
// spent.
func (r *run) readPage(ctx context.Context, pos int) error {
	li := &r.lists[pos]
	frame, missed, err := r.buf.FetchContext(ctx, r.ix.PageOf(li.qt.Term, li.next))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			li.st.Truncated = true
			return err
		}
		if r.faults < r.opts.FaultBudget {
			// Same stance as eval's FaultBudget: the pages already read
			// keep their contributions, the rest of the list is
			// abandoned, and the answer degrades instead of erroring.
			// The termination proof treats the lost tail as finished —
			// exactness holds only fault-free, which is also DF's
			// contract.
			r.faults++
			li.st.Faulted = true
			r.finishList(pos)
			return nil
		}
		return fmt.Errorf("evalsafe: term %q page %d: %w", li.tm.Name, li.next, err)
	}
	li.st.PagesProcessed++
	if missed {
		li.st.PagesRead++
	} else {
		li.st.PagesHit++
	}
	data := frame.Data()
	li.st.EntriesProcessed += len(data)
	r.cands.warm(data)
	for _, entry := range data {
		r.absorb(pos, rank.DocWeight(entry.Freq, li.idf)*li.wqt, entry.Doc)
	}
	r.buf.Unpin(frame)
	li.next++
	if li.next == li.tm.NumPages {
		li.st.Exhausted = true
		r.finishList(pos)
	} else {
		li.bound = rank.DocWeight(li.tm.PageMaxFreq[li.next], li.idf) * li.wqt
	}
	return nil
}

// absorb records one posting's contribution from canonical list pos:
// link it into the document's chain, replay the chain into the
// canonical sum, and move the candidate to the class of its new
// seen-mask.
func (r *run) absorb(pos int, contrib float64, doc postings.DocID) {
	si, fresh := r.cands.lookup(doc)
	c := &r.cands.slots[si]
	if fresh {
		c.class = r.soloClass(pos)
	}
	dup := r.cands.link(c, int32(pos), contrib)
	if c.canon > r.smax {
		r.smax = c.canon
	}
	switch {
	case dup:
		// A malformed list carrying two entries for one document:
		// accumulate like DF's sequential scan would (postings.Build
		// never produces this; bit-identity is claimed only for
		// well-formed lists).
		r.rescored(si)
		return
	case !fresh:
		r.classes.at(c.class).count--
		c.class = r.classes.with(c.class, pos)
	}
	cl := r.classes.at(c.class)
	cl.count++
	if cl.complete {
		r.complete++
		r.settle(c)
	}
}

// soloClass returns the class of candidates seen only in list pos.
func (r *run) soloClass(pos int) int32 {
	li := &r.lists[pos]
	if li.solo < 0 {
		li.solo = r.classes.solo(pos)
	}
	return li.solo
}

// settle feeds a candidate that just completed to the heap — unless a
// proof already retired it, in which case it provably cannot enter.
// Documents with W_d <= 0 are never ranked (rank.TopN's rule).
func (r *run) settle(c *slot) {
	if c.state != active {
		return
	}
	c.state = settled
	if w := r.ix.DocLen[c.doc]; w > 0 {
		r.top.offer(rank.ScoredDoc{Doc: c.doc, Score: c.canon / w})
	}
}

// rescored repairs the heap and the queue after a duplicate entry grew
// a candidate's sum behind the proof's back: a heap member is re-keyed,
// a settled non-member is offered again, and a retired candidate — its
// bound was computed without the extra entry — is made active again.
func (r *run) rescored(si int32) {
	c := &r.cands.slots[si]
	switch c.state {
	case settled:
		if w := r.ix.DocLen[c.doc]; w > 0 {
			r.top.rescore(rank.ScoredDoc{Doc: c.doc, Score: c.canon / w})
		}
	case retired:
		c.state = active
		if r.classes.at(c.class).complete {
			r.settle(c)
		} else if int(si) < r.firstActive {
			r.firstActive = int(si)
		}
	}
}

// finishList marks the list at canonical position pos done and settles
// completeness: every class whose mask now covers the live lists is
// complete — its members' absence from the finished list is proven
// (exhausted) or conceded (faulted).
func (r *run) finishList(pos int) {
	li := &r.lists[pos]
	if li.done {
		return
	}
	li.done = true
	li.bound = 0
	r.live--
	r.liveMask[pos/64] &^= 1 << (pos % 64)
	if r.sticky == pos {
		r.sticky = -1
	}
	if n := r.classes.completeCovered(); n > 0 {
		r.complete += n
		// The newly complete candidates are somewhere in the queue.
		for i := r.firstActive; i < len(r.cands.slots); i++ {
			if c := &r.cands.slots[i]; c.state == active && r.classes.at(c.class).complete {
				r.settle(c)
			}
		}
	}
}

// proven runs the termination check at its cadence: no proof is
// possible before k candidates are complete, and the page boundary
// right after a failed proof is skipped, so the full proof runs at
// most every other page. Soundness does not depend on when it runs.
func (r *run) proven() bool {
	if r.complete < r.opts.TopN {
		// Fewer complete candidates than answers owed (and if the whole
		// collection holds fewer than k scoring documents, the loop runs
		// to exhaustion, which IS the exhaustive answer).
		return false
	}
	if r.skipProof {
		r.skipProof = false
		return false
	}
	ok := r.provenFull()
	r.skipProof = !ok
	return ok
}

// provenFull is the full proof: with the heap's root as the k-th
// member, verify that no unseen document and no active candidate can
// displace it, retiring every candidate shown to lose on the way.
func (r *run) provenFull() bool {
	r.proofs++
	if len(r.top.h) < r.opts.TopN {
		return false // complete candidates with W_d <= 0 do not rank
	}
	kth := r.top.h[0]

	// The unseen-document bound: R over the smallest vector length of
	// any document not yet seen. Strict comparison — an unseen
	// document's DocID could win a tie against the k-th member.
	R := 0.0
	for i := range r.lists {
		R += r.lists[i].bound
	}
	byLen := r.ix.DocsByLen()
	for r.dblCursor < len(byLen) && r.cands.has(byLen[r.dblCursor]) {
		r.dblCursor++
	}
	if r.dblCursor < len(byLen) {
		wmin := r.ix.DocLen[byLen[r.dblCursor]]
		if !(R*ubInflate/wmin < kth.Score) {
			return false
		}
	}

	// Every active candidate must provably lose to the k-th member.
	// (Complete non-members lost when the heap turned them away, under
	// the same total order; retired candidates lost at an earlier proof
	// and cannot have recovered.) The first one that does not lose
	// stays at the front of the queue for the next proof.
	r.gen++
	for ; r.firstActive < len(r.cands.slots); r.firstActive++ {
		c := &r.cands.slots[r.firstActive]
		if c.state != active {
			continue
		}
		if w := r.ix.DocLen[c.doc]; w > 0 {
			ub := c.canon + r.unseenBound(c.class)
			if !rank.Before(kth, rank.ScoredDoc{Doc: c.doc, Score: ub * ubInflate / w}) {
				return false
			}
		}
		c.state = retired
	}
	return true
}

// unseenBound returns Σ boundary contributions over the live lists
// outside the class's mask, computed once per class per proof.
func (r *run) unseenBound(class int32) float64 {
	cl := r.classes.at(class)
	if cl.gen != r.gen {
		u := 0.0
		for wi, m := range r.classes.mask(class) {
			for rest := r.liveMask[wi] &^ m; rest != 0; rest &= rest - 1 {
				u += r.lists[wi*64+bits.TrailingZeros64(rest)].bound
			}
		}
		cl.unseen, cl.gen = u, r.gen
	}
	return cl.unseen
}

// finalize produces the exact answer: the heap holds the k best
// complete candidates under rank.TopN's order. After exhaustion every
// candidate is complete and this IS the exhaustive evaluation; after
// an early termination the excluded incomplete candidates are exactly
// those the proof showed cannot reach the top-k.
func (r *run) finalize() *Outcome {
	if r.complete > 0 {
		r.out.Top = r.top.ranked()
	}
	r.fillStats()
	return r.out
}

// partial finalizes the anytime answer on a context error: a ranking
// of every candidate's known partial score (DF's partial semantics),
// returned alongside the error.
func (r *run) partial(err error) (*Outcome, error) {
	if len(r.cands.slots) > 0 {
		all := topK{k: r.opts.TopN}
		for i := range r.cands.slots {
			c := &r.cands.slots[i]
			if w := r.ix.DocLen[c.doc]; w > 0 {
				all.offer(rank.ScoredDoc{Doc: c.doc, Score: c.canon / w})
			}
		}
		r.out.Top = all.ranked()
	}
	r.out.Partial = true
	r.fillStats()
	return r.out, err
}

// fillStats copies the run's counters into the Outcome.
func (r *run) fillStats() {
	r.out.Candidates = len(r.cands.slots)
	r.out.Complete = r.complete
	r.out.Smax = r.smax
	r.out.Faults = r.faults
	r.out.Degraded = r.faults > 0
	r.out.PerTerm = make([]TermStats, len(r.lists))
	for i := range r.lists {
		st := r.lists[i].st
		r.out.PerTerm[i] = st
		r.out.PagesProcessed += st.PagesProcessed
		r.out.PagesRead += st.PagesRead
		r.out.EntriesProcessed += st.EntriesProcessed
	}
}
