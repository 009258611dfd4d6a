// The rank-safe top-k evaluator family (TA, NRA, MAXSCORE): query
// evaluation over the frequency-sorted paged inverted lists of
// internal/postings that is guaranteed to return the bit-identical
// top-k — same documents, same float64 scores, same tie order — as an
// exhaustive (unfiltered) DF evaluation, while terminating as soon as
// the provisional answer is provably final.
//
// The paper's DF and BAF trade exactness for fewer page reads; this
// family closes that gap, following Fagin's TA/NRA early-termination
// theory and Turtle & Flood's maxscore, adapted to this physical
// layout. Two properties of the layout carry the whole design:
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
//     pass over the distinct masks, and the run's complete count is a
//     sum of class counts;
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
//   - MAXSCORE: term-at-a-time — a chosen list is scanned to
//     exhaustion (checking termination at page boundaries); the next
//     list is chosen by fewest estimated reads first (BAF's rule),
//     with the larger static maximum contribution σ_t breaking ties,
//     so low-σ lists tend never to be opened at all.
//
// Every residency probe is counted as a selection inquiry, like BAF's.

package eval

import (
	"context"
	"math/bits"

	"bufir/internal/postings"
	"bufir/internal/rank"
)

// ubInflate is the safety margin applied to every upper bound before
// it is compared against an exact score; see the comment at the top of
// this file.
const ubInflate = 1 + 1e-12

// listState tracks one query list. Lists are held in canonical order
// (the order checkQuery returns), and a candidate's contribution node
// carries its list's canonical position.
type listState struct {
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
	// tr is the list's row of the Result's trace.
	tr *TermTrace
}

// safeRun is the state of one rank-safe evaluation; everything is
// call-confined, so concurrent evaluations on one Evaluator are safe
// whenever its pool is.
type safeRun struct {
	e    *Evaluator
	algo Algorithm
	res  *Result

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
	// terminated is set when the bound proof stopped the evaluation
	// before every list was finished — the pages the proof saved are the
	// unread tails at that moment.
	terminated bool

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

// newSafeRun builds the evaluation state for a query already in
// canonical order (checkQuery's output). Every list gets its trace row
// up front, marked Skipped until its first page is fetched. Zero-page
// lists (a shard term whose postings live in other partitions, or a
// df-carrying term with no local pages) start finished: nothing local
// to read, nothing to contribute, and absence from them is proven
// vacuously.
func (e *Evaluator) newSafeRun(algo Algorithm, q Query) *safeRun {
	r := &safeRun{
		e:        e,
		algo:     algo,
		res:      &Result{Trace: make([]TermTrace, len(q))},
		lists:    make([]listState, len(q)),
		liveMask: make([]uint64, (len(q)+63)/64),
		top:      topK{k: e.Params.TopN},
		sticky:   -1,
	}
	postingsBound := 0
	for i, qt := range q {
		tm := &e.Idx.Terms[qt.Term]
		wqt := rank.QueryWeight(qt.Fqt, tm.IDF)
		r.res.Trace[i] = TermTrace{
			Term:           qt.Term,
			Name:           tm.Name,
			IDF:            tm.IDF,
			Fqt:            qt.Fqt,
			ListPages:      tm.NumPages,
			EstimatedReads: -1,
			Skipped:        tm.NumPages > 0,
		}
		li := &r.lists[i]
		*li = listState{
			tm:    tm,
			idf:   tm.IDF,
			wqt:   wqt,
			sigma: rank.DocWeight(tm.FMax, tm.IDF) * wqt,
			solo:  -1,
			tr:    &r.res.Trace[i],
		}
		// A list holds DF entries, and no more than its pages can (a
		// shard's DF may be the global one).
		postingsBound += min(tm.DF, tm.NumPages*e.Idx.PageSize)
		if tm.NumPages == 0 {
			li.done = true
			continue
		}
		li.bound = rank.DocWeight(tm.PageMaxFreq[0], li.idf) * li.wqt
		r.liveMask[i/64] |= 1 << (i % 64)
		r.live++
	}
	r.cands.init(min(postingsBound, e.Idx.NumDocs), postingsBound)
	r.classes.init(r.liveMask)
	return r
}

// evaluate runs the page loop and writes the answer into the Result:
// the proven top-k after a clean finish, the anytime ranking of every
// candidate's known partial score on a context error (DF's partial
// semantics), nothing on any other error.
func (r *safeRun) evaluate(ctx context.Context) error {
	err := r.scan(ctx)
	switch {
	case err == nil:
		// The heap holds the k best complete candidates under
		// rank.TopN's order. After exhaustion every candidate is complete
		// and this IS the exhaustive evaluation; after an early
		// termination the excluded incomplete candidates are exactly
		// those the proof showed cannot reach the top-k.
		if r.complete > 0 {
			r.res.Top = r.top.ranked()
		}
	case isContextErr(err):
		if len(r.cands.slots) > 0 {
			all := topK{k: r.top.k}
			for i := range r.cands.slots {
				c := &r.cands.slots[i]
				if w := r.e.Idx.DocLen[c.doc]; w > 0 {
					all.offer(rank.ScoredDoc{Doc: c.doc, Score: c.canon / w})
				}
			}
			r.res.Top = all.ranked()
		}
	default:
		return err
	}
	r.res.Accumulators = len(r.cands.slots)
	r.res.Smax = r.smax
	return err
}

// scan is the page loop: prove, pick, read, until the proof fires or
// every list is finished.
func (r *safeRun) scan(ctx context.Context) error {
	for r.live > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.proven() {
			r.terminated = true
			return nil
		}
		if err := r.advance(ctx, r.pickNext()); err != nil {
			return err
		}
	}
	return nil
}

// unreadResident estimates how many of the list's unread pages are
// buffer-resident: the pool reports residency per term, not per page,
// so the pages this evaluation already processed are subtracted as
// the best available correction (the same b_t approximation BAF's
// d_t = p_t − b_t makes). Counted as a selection inquiry.
func (r *safeRun) unreadResident(li *listState) int {
	r.res.SelectionInquiries++
	n := r.e.Buf.ResidentPages(li.tr.Term) - li.next
	if n < 0 {
		return 0
	}
	return n
}

// pickNext chooses the canonical position of the next list to advance
// by one page. At least one list is live when called.
func (r *safeRun) pickNext() int {
	switch r.algo {
	case NRA:
		return r.pickNRA()
	case MAXSCORE:
		return r.pickMaxscore()
	default:
		return r.pickTA()
	}
}

// pickTA pops the lockstep round queue, rebuilding it — live lists
// ordered by unread residency, then canonical position — whenever a
// round completes.
func (r *safeRun) pickTA() int {
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
func (r *safeRun) pickNRA() int {
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
func (r *safeRun) pickMaxscore() int {
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

// advance reads and absorbs the next page of the list at canonical
// position pos. Context errors and faults past the budget propagate; a
// fault the budget absorbs finishes the list Degraded-style: the pages
// already read keep their contributions, and the termination proof
// treats the lost tail as finished — exactness holds only fault-free,
// which is also DF's contract.
func (r *safeRun) advance(ctx context.Context, pos int) error {
	li := &r.lists[pos]
	li.tr.Skipped = false
	frame, err := r.e.readPage(ctx, li.tr, li.next, r.res)
	if frame == nil {
		if err == nil {
			r.finishList(pos)
		}
		return err
	}
	data := frame.Data()
	r.cands.warm(data)
	for _, entry := range data {
		r.absorb(pos, rank.DocWeight(entry.Freq, li.idf)*li.wqt, entry.Doc)
	}
	r.e.Buf.Unpin(frame)
	li.next++
	if li.next == li.tm.NumPages {
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
func (r *safeRun) absorb(pos int, contrib float64, doc postings.DocID) {
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
func (r *safeRun) soloClass(pos int) int32 {
	li := &r.lists[pos]
	if li.solo < 0 {
		li.solo = r.classes.solo(pos)
	}
	return li.solo
}

// settle feeds a candidate that just completed to the heap — unless a
// proof already retired it, in which case it provably cannot enter.
// Documents with W_d <= 0 are never ranked (rank.TopN's rule).
func (r *safeRun) settle(c *slot) {
	if c.state != active {
		return
	}
	c.state = settled
	if w := r.e.Idx.DocLen[c.doc]; w > 0 {
		r.top.offer(rank.ScoredDoc{Doc: c.doc, Score: c.canon / w})
	}
}

// rescored repairs the heap and the queue after a duplicate entry grew
// a candidate's sum behind the proof's back: a heap member is re-keyed,
// a settled non-member is offered again, and a retired candidate — its
// bound was computed without the extra entry — is made active again.
func (r *safeRun) rescored(si int32) {
	c := &r.cands.slots[si]
	switch c.state {
	case settled:
		if w := r.e.Idx.DocLen[c.doc]; w > 0 {
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
func (r *safeRun) finishList(pos int) {
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
func (r *safeRun) proven() bool {
	if r.complete < r.top.k {
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
func (r *safeRun) provenFull() bool {
	r.proofs++
	if len(r.top.h) < r.top.k {
		return false // complete candidates with W_d <= 0 do not rank
	}
	kth := r.top.h[0]
	ix := r.e.Idx

	// The unseen-document bound: R over the smallest vector length of
	// any document not yet seen. Strict comparison — an unseen
	// document's DocID could win a tie against the k-th member.
	R := 0.0
	for i := range r.lists {
		R += r.lists[i].bound
	}
	byLen := ix.DocsByLen()
	for r.dblCursor < len(byLen) && r.cands.has(byLen[r.dblCursor]) {
		r.dblCursor++
	}
	if r.dblCursor < len(byLen) {
		wmin := ix.DocLen[byLen[r.dblCursor]]
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
		if w := ix.DocLen[c.doc]; w > 0 {
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
func (r *safeRun) unseenBound(class int32) float64 {
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
