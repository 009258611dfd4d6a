package eval

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/rank"
)

// boundaryPool calls onFetch as each page fetch is issued — the page
// boundary: the previous page is absorbed and the proof has run.
type boundaryPool struct {
	buffer.Pool
	onFetch func()
}

func (p *boundaryPool) FetchContext(ctx context.Context, id postings.PageID) (*buffer.Frame, bool, error) {
	p.onFetch()
	return p.Pool.FetchContext(ctx, id)
}

// newTestRun builds a rank-safe run the way EvaluateContext does, minus
// the announcement to the pool, so a test can drive its steps and read
// its state.
func newTestRun(t testing.TB, ix *postings.Index, pool buffer.Pool, q Query, algo Algorithm, p Params) *run {
	t.Helper()
	ev := &Evaluator{Idx: ix, Buf: pool, Params: p}
	ordered, err := ev.checkQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return ev.newRun(algo, ordered, false)
}

// scratchTop selects the k best complete candidates from the slots
// alone, the way the pre-heap evaluator did at every proof.
func scratchTop(r *run) []rank.ScoredDoc {
	var all []rank.ScoredDoc
	for i := range r.acc.slots {
		if sd, ok := r.scored(int32(i)); ok && covers(r.classes.mask(r.acc.slots[i].class), r.liveMask) {
			all = append(all, sd)
		}
	}
	rank.SortDesc(all)
	if k := r.e.Params.TopN; len(all) > k {
		all = all[:k]
	}
	return all
}

// checkBoundary asserts the two invariants retirement rests on: the
// heap is the from-scratch top-k of the complete candidates, and no
// retired document belongs to the exhaustive answer.
func checkBoundary(t *testing.T, r *run, want []rank.ScoredDoc, where string) (nRetired int) {
	t.Helper()
	got := r.top.Ranked()
	scratch := scratchTop(r)
	if len(got) != len(scratch) {
		t.Fatalf("%s: heap holds %d, from-scratch selection %d", where, len(got), len(scratch))
	}
	for i := range got {
		if got[i] != scratch[i] {
			t.Fatalf("%s: heap[%d] = %+v, from scratch %+v", where, i, got[i], scratch[i])
		}
	}
	if kth, full := r.top.Kth(); full && kth != got[len(got)-1] {
		t.Fatalf("%s: heap root %+v is not the k-th %+v", where, kth, got[len(got)-1])
	}
	inAnswer := make(map[postings.DocID]bool, len(want))
	for _, sd := range want {
		inAnswer[sd.Doc] = true
	}
	complete := 0
	for i := range r.acc.slots {
		c := &r.acc.slots[i]
		if covers(r.classes.mask(c.class), r.liveMask) {
			complete++
		}
		if c.state != retired {
			continue
		}
		nRetired++
		if doc := r.acc.docs[i]; inAnswer[doc] {
			t.Fatalf("%s: document %d of the exhaustive top-%d was retired", where, doc, r.e.Params.TopN)
		}
		if i >= r.firstActive {
			t.Fatalf("%s: retired slot %d at or past the queue front %d", where, i, r.firstActive)
		}
	}
	if complete != r.complete {
		t.Fatalf("%s: complete = %d, from-scratch count %d", where, r.complete, complete)
	}
	return nRetired
}

// deep reports whether BUFIR_DEEP=1 asks for the full sweeps the ci
// pass samples (make deep).
func deep() bool { return os.Getenv("BUFIR_DEEP") == "1" }

// TestRetirementSoundAtEveryPageBoundary is the property monotone
// retirement rests on, checked where it could first break: at every
// page boundary of every schedule, over seeded corpora, the retired
// set holds no document of the exhaustive top-k, the heap equals a
// from-scratch selection, and the class counts add up.
//
// The checks at every boundary of the long skew queries cost minutes
// under -race, so by default the test takes a seeded sample: all 40
// random fixtures and, for each skew query of at most 13 lists, one of
// the three k. BUFIR_DEEP=1 (make deep) sweeps every input. Either way
// the run must retire candidates, attempt proofs, stop early, and meet
// boundaries with both a full and a partial heap.
func TestRetirementSoundAtEveryPageBoundary(t *testing.T) {
	type input struct {
		name string
		f    *fixture
		q    Query
		k    int
	}
	var inputs []input
	skew := loadGoldenEnv(t, "skew")
	sample := rand.New(rand.NewSource(7))
	for i, n := range goldenLists {
		ks := []int{1, 3, 10}
		if !deep() {
			if n > 13 {
				continue
			}
			ks = ks[sample.Intn(len(ks)):][:1]
		}
		for _, k := range ks {
			inputs = append(inputs, input{fmt.Sprintf("skew lists=%d k=%d", n, k), skew.fixture, skew.query(i), k})
		}
	}
	rnd := rand.New(rand.NewSource(161803))
	for i := 0; i < 40; i++ {
		f := randFixture(t, rnd)
		inputs = append(inputs, input{fmt.Sprintf("random %d", i), f, randSafeQuery(rnd, len(f.lists)), 1 + rnd.Intn(6)})
	}

	retiredEver, proofs, stops, fullHeap, partialHeap := 0, 0, 0, 0, 0
	for _, in := range inputs {
		for _, algo := range safeAlgos {
			bp := &boundaryPool{Pool: in.f.newPool(t, 64, buffer.NewLRU())}
			r := newTestRun(t, in.f.ix, bp, in.q, algo, Params{TopN: in.k})
			want := in.f.bruteForce(in.q, in.k)
			where := fmt.Sprintf("%s %v", in.name, algo)
			page := 0
			bp.onFetch = func() {
				checkBoundary(t, r, want, fmt.Sprintf("%s page %d", where, page))
				if _, full := r.top.Kth(); full {
					fullHeap++
				} else {
					partialHeap++
				}
				page++
			}
			if err := r.evaluate(context.Background()); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			retiredEver += checkBoundary(t, r, want, where+" end")
			proofs += r.proofs
			if r.terminated {
				stops++
			}
			assertTopIdentical(t, where, r.res.Top, want)
		}
	}
	if retiredEver == 0 || proofs == 0 || stops == 0 || fullHeap == 0 || partialHeap == 0 {
		t.Fatalf("vacuous: %d proofs retired %d candidates and stopped %d runs; %d boundaries with a full heap, %d with a partial one",
			proofs, retiredEver, stops, fullHeap, partialHeap)
	}
	t.Logf("%d inputs: %d proofs retired %d candidates and stopped %d runs; %d boundaries with a full heap, %d with a partial one",
		len(inputs), proofs, retiredEver, stops, fullHeap, partialHeap)
}

// TestProofCadence pins when the full proof runs: at every page
// boundary with k complete candidates, except the boundary right after
// a failed proof — one proof, one skipped boundary, never a longer
// back-off.
func TestProofCadence(t *testing.T) {
	env := loadGoldenEnv(t, "skew")
	for _, algo := range safeAlgos {
		for i := range goldenLists {
			const k = 3
			bp := &boundaryPool{Pool: env.newPool(t, 64, buffer.NewLRU())}
			r := newTestRun(t, env.ix, bp, env.query(i), algo, Params{TopN: k})
			// Every fetch follows a proven() that returned false; replay
			// its decision from the state it saw.
			want, skip, boundaries := 0, false, 0
			bp.onFetch = func() {
				boundaries++
				switch {
				case r.complete < k:
				case skip:
					skip = false
				default:
					want++
					skip = true
				}
				if r.proofs != want {
					t.Fatalf("%v lists=%d boundary %d: %d proofs attempted, cadence says %d",
						algo, goldenLists[i], boundaries, r.proofs, want)
				}
			}
			if err := r.evaluate(context.Background()); err != nil {
				t.Fatal(err)
			}
			if r.terminated {
				want++ // the proof that fired is followed by no fetch
			}
			if r.proofs != want {
				t.Fatalf("%v lists=%d: %d proofs attempted, cadence says %d", algo, goldenLists[i], r.proofs, want)
			}
			if max := (boundaries+1)/2 + 1; r.proofs > max {
				t.Fatalf("%v lists=%d: %d proofs over %d boundaries, more than every other one",
					algo, goldenLists[i], r.proofs, boundaries)
			}
		}
	}
}

// TestSeenMaskWidths: queries of 1, 64, 65 and 128 lists — one mask
// word exactly full, one bit into the second word, two full words —
// stay bit-identical to exhaustive evaluation under every schedule.
func TestSeenMaskWidths(t *testing.T) {
	rnd := rand.New(rand.NewSource(6465))
	const numDocs, numTerms = 300, 128
	lists := make([]postings.TermPostings, numTerms)
	for tm := range lists {
		df := 5 + rnd.Intn(60)
		entries := make([]postings.Entry, df)
		for i, d := range rnd.Perm(numDocs)[:df] {
			entries[i] = postings.Entry{Doc: postings.DocID(d), Freq: int32(1 + rnd.Intn(9))}
		}
		lists[tm] = postings.TermPostings{Name: fmt.Sprintf("w%03d", tm), Entries: entries}
	}
	f := newFixture(t, lists, numDocs, 8)
	for _, n := range []int{1, 64, 65, 128} {
		q := make(Query, n)
		for i, tm := range rnd.Perm(numTerms)[:n] {
			q[i] = QueryTerm{Term: postings.TermID(tm), Fqt: 1 + i%2}
		}
		want := f.bruteForce(q, 10)
		for _, algo := range safeAlgos {
			r := newTestRun(t, f.ix, f.newPool(t, 32, buffer.NewLRU()), q, algo, Params{TopN: 10})
			if got, words := r.classes.words, (n+63)/64; got != words {
				t.Fatalf("%d lists: %d mask words, want %d", n, got, words)
			}
			if err := r.evaluate(context.Background()); err != nil {
				t.Fatal(err)
			}
			assertTopIdentical(t, fmt.Sprintf("%d lists %v", n, algo), r.res.Top, want)
			if !r.terminated && r.complete != len(r.acc.docs) {
				t.Fatalf("%d lists %v: exhausted with %d of %d candidates complete", n, algo, r.complete, len(r.acc.docs))
			}
		}
	}
}

// TestTablesGrowAcrossResize: a candidate table reserved for 4
// documents and a class table starting at 64 index entries keep every
// slot, chain and class reachable through repeated doublings.
func TestTablesGrowAcrossResize(t *testing.T) {
	ct := getAccTable(7*5000, 4, 4)
	const n = 5000
	for d := 0; d < n; d++ {
		if si := ct.slot(postings.DocID(7 * d)); int(si) != d {
			t.Fatalf("doc %d: slot %d", 7*d, si)
		}
		ct.slots = push(ct.slots, slot{head: -1, tail: -1, tailPos: -1})
		ct.link(int32(d), 2, float64(d))
	}
	for d := 0; d < n; d++ {
		doc := postings.DocID(7 * d)
		if !ct.has(doc) || int(ct.pos(doc)) != d {
			t.Fatalf("after growth doc %d: not at slot %d", doc, d)
		}
		ct.link(int32(d), 1, 0.5) // before the tail: a mid-chain insert and replay
		if want := 0.5 + float64(d); ct.vals[d] != want {
			t.Fatalf("doc %d: sum %v, want %v", doc, ct.vals[d], want)
		}
		if ct.has(doc + 1) {
			t.Fatalf("doc %d reported present", doc+1)
		}
	}
	if len(ct.slots) != n || len(ct.arena) != 2*n {
		t.Fatalf("%d slots, %d nodes", len(ct.slots), len(ct.arena))
	}

	var cl classTable
	cl.init([]uint64{^uint64(0), ^uint64(0)})
	ids := make([]int32, 128)
	for pos := range ids {
		ids[pos] = cl.solo(pos)
	}
	pairs := make(map[[2]int]int32)
	for a := 0; a < 128; a += 3 {
		for b := 1; b < 128; b += 5 {
			pairs[[2]int{a, b}] = cl.with(ids[a], b)
		}
	}
	for pos, id := range ids {
		if got := cl.solo(pos); got != id {
			t.Fatalf("solo(%d) = %d after growth, was %d", pos, got, id)
		}
	}
	for ab, id := range pairs {
		// Reached from the other side: {b} ∪ {a} is the same class.
		if got := cl.with(ids[ab[1]], ab[0]); got != id {
			t.Fatalf("class of {%d,%d}: %d via %d, %d via %d", ab[0], ab[1], id, ab[0], got, ab[1])
		}
		m := cl.mask(id)
		if m[ab[0]/64]&(1<<(ab[0]%64)) == 0 || m[ab[1]/64]&(1<<(ab[1]%64)) == 0 {
			t.Fatalf("class %d lost a bit of {%d,%d}: %x", id, ab[0], ab[1], m)
		}
	}
	if len(cl.index) < 2*len(cl.classes) {
		t.Fatalf("class index over half full: %d classes in %d", len(cl.classes), len(cl.index))
	}
}

// TestDuplicateEntriesAccumulate: a malformed list with two entries
// for one document accumulates like DF's sequential scan — also when
// the second entry arrives after the candidate is complete and sits
// in the heap, and when it arrives for a candidate a proof retired.
func TestDuplicateEntriesAccumulate(t *testing.T) {
	// Doc 0 appears twice in each list; with 2-entry pages the second
	// appearance is pages after the first.
	a := postings.TermPostings{Name: "a", Entries: []postings.Entry{
		{Doc: 0, Freq: 9}, {Doc: 1, Freq: 8}, {Doc: 2, Freq: 7}, {Doc: 3, Freq: 6},
		{Doc: 4, Freq: 5}, {Doc: 0, Freq: 4}, {Doc: 5, Freq: 3}, {Doc: 6, Freq: 2},
	}}
	b := postings.TermPostings{Name: "b", Entries: []postings.Entry{
		{Doc: 3, Freq: 9}, {Doc: 0, Freq: 8}, {Doc: 6, Freq: 7}, {Doc: 0, Freq: 6},
		{Doc: 2, Freq: 5}, {Doc: 7, Freq: 4},
	}}
	f := newFixture(t, []postings.TermPostings{a, b}, 12, 2)
	for _, q := range []Query{
		{{Term: 0, Fqt: 1}}, // complete on first sight: the duplicate re-keys a heap member
		{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 2}},
	} {
		// k beyond the candidate count: no early stop, so every entry —
		// both duplicates included — is scanned, as in exhaustive DF.
		want := f.bruteForce(q, 12)
		for _, algo := range safeAlgos {
			res, err := f.evaluator(t, 4, buffer.NewLRU(), Params{TopN: 12}).Evaluate(algo, q)
			if err != nil {
				t.Fatal(err)
			}
			assertTopIdentical(t, fmt.Sprintf("%d lists %v", len(q), algo), res.Top, want)
		}
	}

	// The same through the run's own steps, for the states a scan
	// cannot reach on purpose: k = 1, two lists, list 1 still live.
	r := newTestRun(t, f.ix, f.newPool(t, 4, buffer.NewLRU()), Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}}, NRA, Params{TopN: 1})
	state := func(doc postings.DocID) candState {
		if !r.acc.has(doc) {
			t.Fatalf("document %d is not a candidate", doc)
		}
		return r.acc.slots[r.acc.pos(doc)].state
	}
	r.absorb(0, 100, 1)
	r.absorb(1, 100, 1) // doc 1: seen in both lists, complete, the heap's only member
	r.absorb(0, 1, 2)   // doc 2: incomplete, bound 1 + list 1's boundary
	r.lists[0].bound, r.lists[1].bound = 1000, 1000
	if r.provenFull() || state(2) != active {
		t.Fatal("proof fired, or retired doc 2, with list 1 still able to lift it past doc 1")
	}
	// Shrink the boundaries until nothing unseen and nothing incomplete
	// can reach doc 1.
	r.lists[0].bound, r.lists[1].bound = 1e-9, 1e-9
	if !r.provenFull() || state(2) != retired {
		t.Fatalf("doc 2 not retired (state %d)", state(2))
	}
	r.absorb(0, 500, 2) // a duplicate in list 0 the retirement never saw
	if state(2) != active || r.firstActive != 1 {
		t.Fatalf("doc 2 state %d, queue front %d after its duplicate", state(2), r.firstActive)
	}
	if r.provenFull() {
		t.Fatal("proof fired over a reactivated candidate that now wins")
	}
	r.absorb(1, 1, 2) // completes: must displace doc 1
	if got := r.top.Ranked(); len(got) != 1 || got[0].Doc != 2 {
		t.Fatalf("heap = %+v, want doc 2", got)
	}
	r.absorb(1, 1000, 1) // duplicate for a settled document the heap turned away
	if got := r.top.Ranked(); len(got) != 1 || got[0].Doc != 1 {
		t.Fatalf("heap = %+v, want doc 1 back", got)
	}
	r.absorb(0, 7, 1) // duplicate for the heap member: re-keyed in place
	if got, w := r.top.Ranked(), f.ix.DocLen[1]; got[0].Score != (107+1100)/w {
		t.Fatalf("member score %v, want %v", got[0].Score, (107+1100)/w)
	}
}
