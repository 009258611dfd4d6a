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
// The candidates live in the one candidate table every method uses
// (acc.go), taken from its pool and reserved up front for the lists'
// document frequencies; beside it, all per-evaluation state is a
// handful of pointer-free slices (see cands.go), so an evaluation
// allocates a few dozen objects whatever its candidate count — none
// when a pooled table is large enough — and the collector scans none
// of them:
//
//   - the table's DocID → position index behind its presence bitmap,
//     with the canonical sum as the candidate's accumulator; a slot at
//     the same position holds the ends of the contribution chain and
//     the candidate's CLASS — its seen-mask (⌈lists/64⌉ words),
//     interned, with a count of the candidates that carry it;
//   - completeness per class, not per candidate: a class is complete
//     when its mask covers every live list, so finishing a list is one
//     pass over the distinct masks, and the run's complete count is a
//     sum of class counts;
//   - a size-k rank.TopK of the best complete candidates, fed as each
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
// pool's per-term residency (the paper's b_t) before choosing the next
// access, through the page loop's one counted probe (unreadResident):
// TA advances every live list one page per round, lists whose unread
// pages look resident first; NRA reads, at every page, a list with a
// resident next page, then the largest boundary contribution
// (shrinking bounds fastest), then canonical order; MAXSCORE scans
// term-at-a-time, choosing the next list by BAF's rule (fewestReads),
// so low-σ lists tend never to be opened at all.

package eval

import (
	"math/bits"

	"bufir/internal/postings"
	"bufir/internal/rank"
)

// ubInflate is the safety margin applied to every upper bound before
// it is compared against an exact score; see the comment at the top of
// this file.
const ubInflate = 1 + 1e-12

// roundEntry is one list of a TA round with its residency estimate.
type roundEntry struct{ idx, resident int }

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

// absorb records one posting's contribution from canonical list pos:
// link it into the document's chain, replay the chain into the
// canonical sum, and move the candidate to the class of its new
// seen-mask.
func (r *run) absorb(pos int, contrib float64, doc postings.DocID) {
	t := r.acc
	fresh := !t.has(doc)
	si := t.slot(doc)
	if fresh {
		t.slots = push(t.slots, slot{class: r.soloClass(pos), head: -1, tail: -1, tailPos: -1})
	}
	dup := t.link(si, int32(pos), contrib)
	if t.vals[si] > r.smax {
		r.smax = t.vals[si]
	}
	c := &t.slots[si]
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
		r.settle(si)
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

// settle feeds candidate si, which just completed, to the heap —
// unless a proof already retired it, in which case it provably cannot
// enter. Documents with W_d <= 0 are never ranked (rank.TopN's rule).
func (r *run) settle(si int32) {
	c := &r.acc.slots[si]
	if c.state != active {
		return
	}
	c.state = settled
	if sd, ok := r.scored(si); ok {
		r.top.Offer(sd)
	}
}

// rescored repairs the heap and the queue after a duplicate entry grew
// a candidate's sum behind the proof's back: a heap member is re-keyed,
// a settled non-member is offered again, and a retired candidate — its
// bound was computed without the extra entry — is made active again.
func (r *run) rescored(si int32) {
	c := &r.acc.slots[si]
	switch c.state {
	case settled:
		if sd, ok := r.scored(si); ok {
			r.top.Rescore(sd)
		}
	case retired:
		c.state = active
		if r.classes.at(c.class).complete {
			r.settle(si)
		} else if int(si) < r.firstActive {
			r.firstActive = int(si)
		}
	}
}

// proven runs the termination check at its cadence: no proof is
// possible before k candidates are complete, and the page boundary
// right after a failed proof is skipped, so the full proof runs at
// most every other page. Soundness does not depend on when it runs.
func (r *run) proven() bool {
	if r.complete < r.e.Params.TopN {
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
	kth, full := r.top.Kth()
	if !full {
		return false // complete candidates with W_d <= 0 do not rank
	}
	ix := r.e.Idx

	// The unseen-document bound: R over the smallest vector length of
	// any document not yet seen. Strict comparison — an unseen
	// document's DocID could win a tie against the k-th member.
	R := 0.0
	for i := range r.lists {
		R += r.lists[i].bound
	}
	byLen := ix.DocsByLen()
	for r.dblCursor < len(byLen) && r.acc.has(byLen[r.dblCursor]) {
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
	for ; r.firstActive < len(r.acc.slots); r.firstActive++ {
		c := &r.acc.slots[r.firstActive]
		if c.state != active {
			continue
		}
		doc := r.acc.docs[r.firstActive]
		if w := ix.DocLen[doc]; w > 0 {
			ub := r.acc.vals[r.firstActive] + r.unseenBound(c.class)
			if !rank.Before(kth, rank.ScoredDoc{Doc: doc, Score: ub * ubInflate / w}) {
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
