package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bufir"
)

// searchFunc answers one step on behalf of client c.
type searchFunc func(ctx context.Context, c int, s step) (*bufir.Result, error)

// clientTally is what one client saw: every operation it attempted,
// warm-up included, and the timings and scores of the recorded passes.
type clientTally struct {
	attempted int64
	failed    int64
	firstFail string
	// latencyMs[i] was observed in recorded pass passOf[i].
	latencyMs  []float64
	passOf     []int32
	overlapSum float64
}

func (t *clientTally) fail(format string, args ...any) {
	t.failed++
	if t.firstFail == "" {
		t.firstFail = fmt.Sprintf(format, args...)
	}
}

// liveDriver is client 0's writing side on the live workload: it
// ingests a seeded document after every ingestEvery-th query and
// merges after every mergeEvery-th ingest.
type liveDriver struct {
	ingest func(ctx context.Context, d ingestDoc) (bufir.DocID, error)
	merge  func(ctx context.Context) error
	src    *ingestSource

	sinceIngest, sinceMerge int
	// docs are the ingested documents with their assigned ids, in
	// ingestion order, for the rebuild check.
	docs []ingestedDoc
	// published is set by every publish and cleared by the next query:
	// that query meets a cold pool.
	published bool

	// Recorded passes only.
	ingestMs, mergeMs []float64
	coldReads         []float64
	publishes         int64
}

// indexIngest feeds documents to a live public Index the way
// Engine.IngestContext does (a context check, then the index's commit
// path), but as (term, frequency) pairs: IngestContext takes text, and
// the lexical pipeline keeps letters only, so it drops every name of
// the synthetic vocabulary (t00042) and the documents would be empty.
func indexIngest(ix *bufir.Index) func(context.Context, ingestDoc) (bufir.DocID, error) {
	return func(ctx context.Context, d ingestDoc) (bufir.DocID, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return ix.AddTerms(d.name, d.counts)
	}
}

type ingestedDoc struct {
	id     bufir.DocID
	counts map[string]int
}

// afterQuery runs the writing side once client 0 has finished a
// query; failures land in t.
func (l *liveDriver) afterQuery(ctx context.Context, record bool, t *clientTally) {
	l.sinceIngest++
	if l.sinceIngest < ingestEvery {
		return
	}
	l.sinceIngest = 0
	doc := l.src.next()
	t0 := time.Now()
	id, err := l.ingest(ctx, doc)
	d := time.Since(t0)
	t.attempted++
	if err != nil {
		t.fail("ingest %s: %v", doc.name, err)
		return
	}
	l.docs = append(l.docs, ingestedDoc{id: id, counts: doc.counts})
	l.published = true
	l.sinceMerge++
	if record {
		l.ingestMs = append(l.ingestMs, float64(d)/1e6)
		l.publishes++
	}
	if l.sinceMerge < mergeEvery {
		return
	}
	l.sinceMerge = 0
	t0 = time.Now()
	err = l.merge(ctx)
	d = time.Since(t0)
	t.attempted++
	if err != nil {
		t.fail("merge: %v", err)
		return
	}
	if record {
		l.mergeMs = append(l.mergeMs, float64(d)/1e6)
		l.publishes++
	}
}

// runner drives the stream's closed loop: clients take the next step
// of the pass order from one shared cursor and issue it only when the
// previous answer is back, so both stay busy whatever order the seed
// dealt. A user's steps never overlap and never reorder: a client
// holding step k of a user waits until step k-1 has been answered.
type runner struct {
	order   []step
	clients int
	search  searchFunc
	// orc scores every answer; exact additionally requires bit-identity
	// with it.
	orc   *oracle
	exact bool
	live  *liveDriver // client 0's, nil on frozen workloads

	mu     sync.Mutex
	turn   *sync.Cond // signalled whenever a step completes
	cursor int        // steps handed out since the runner was made
	handed []int      // per user: steps handed out
	done   []int      // per user: steps answered

	// The current run: where its cursor started, when, and when to stop
	// (after maxPasses passes, or near seconds when maxPasses is 0).
	base      int
	start     time.Time
	seconds   float64
	maxPasses int
	stopped   bool
	// marks holds the time the cursor crossed each pass boundary of
	// the current run, its start included.
	marks []time.Time

	tallies []clientTally
}

func newRunner(st *stream, orc *oracle, exact bool, clients int, search searchFunc) *runner {
	r := &runner{
		order:   st.passOrder(),
		clients: clients,
		search:  search,
		orc:     orc,
		exact:   exact,
		handed:  make([]int, len(st.users)),
		done:    make([]int, len(st.users)),
		tallies: make([]clientTally, clients),
	}
	r.turn = sync.NewCond(&r.mu)
	return r
}

// grab hands out the next step, the pass of the current run it belongs
// to, and how many of its user's steps must have been answered before
// it may be issued; ok is false once the run is over. A run ends only on a pass boundary: a timed run stops at
// the boundary nearest to its target, after at least one pass.
func (r *runner) grab() (s step, pass, after int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return step{}, 0, 0, false
	}
	if out := r.cursor - r.base; out > 0 && out%len(r.order) == 0 {
		passes := out / len(r.order)
		now := time.Now()
		r.marks = append(r.marks, now)
		if r.maxPasses > 0 {
			r.stopped = passes >= r.maxPasses
		} else {
			elapsed := now.Sub(r.start).Seconds()
			r.stopped = elapsed+elapsed/float64(passes)/2 >= r.seconds
		}
		if r.stopped {
			return step{}, 0, 0, false
		}
	}
	s = r.order[r.cursor%len(r.order)]
	pass = (r.cursor - r.base) / len(r.order)
	r.cursor++
	after = r.handed[s.user]
	r.handed[s.user]++
	return s, pass, after, true
}

// awaitTurn blocks until the user's earlier steps have been answered.
func (r *runner) awaitTurn(user, after int) {
	r.mu.Lock()
	for r.done[user] < after {
		r.turn.Wait()
	}
	r.mu.Unlock()
}

func (r *runner) finish(user int) {
	r.mu.Lock()
	r.done[user]++
	r.mu.Unlock()
	r.turn.Broadcast()
}

// run drives the clients through whole passes — maxPasses of them, or
// as many as fit seconds when maxPasses is 0 — and returns the wall
// time and the pass count. Only recorded runs enter the tallies.
func (r *runner) run(ctx context.Context, record bool, seconds float64, maxPasses int) (wall time.Duration, passes int) {
	r.base, r.start, r.seconds, r.maxPasses, r.stopped = r.cursor, time.Now(), seconds, maxPasses, false
	r.marks = append(r.marks[:0], r.start)
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.client(ctx, c, record)
		}(c)
	}
	wg.Wait()
	return time.Since(r.start), (r.cursor - r.base) / len(r.order)
}

func (r *runner) client(ctx context.Context, c int, record bool) {
	t := &r.tallies[c]
	for ctx.Err() == nil {
		s, pass, after, ok := r.grab()
		if !ok {
			return
		}
		r.awaitTurn(s.user, after)
		t0 := time.Now()
		res, err := r.search(ctx, c, s)
		d := time.Since(t0)
		r.finish(s.user)
		t.attempted++
		overlap := r.judge(t, s, res, err)
		if record {
			t.latencyMs = append(t.latencyMs, float64(d)/1e6)
			t.passOf = append(t.passOf, int32(pass))
			t.overlapSum += overlap
		}
		if r.live != nil && c == 0 {
			if r.live.published && res != nil {
				if record {
					r.live.coldReads = append(r.live.coldReads, float64(res.PagesRead))
				}
				r.live.published = false
			}
			r.live.afterQuery(ctx, record, t)
		}
	}
}

// judge books one answer and returns its overlap@20 with the oracle.
// An operation fails when it errored, was shed or timed out, came back
// degraded or partial, or — on an exact workload — differs from the
// oracle in any bit.
func (r *runner) judge(t *clientTally, s step, res *bufir.Result, err error) float64 {
	switch {
	case err != nil:
		t.fail("%s: %v", describeQuery(s), err)
		return 0
	case res == nil:
		t.fail("%s: no result", describeQuery(s))
		return 0
	case res.Degraded || res.Partial:
		t.fail("%s: degraded=%v partial=%v", describeQuery(s), res.Degraded, res.Partial)
		return 0
	}
	want := r.orc.top[s.id]
	if r.exact && !identical(res.Top, want) {
		t.fail("%s: answer differs from the exhaustive oracle", describeQuery(s))
	}
	return overlapAtK(res.Top, want, topN)
}

// totals merges the clients' tallies.
func (r *runner) totals() clientTally {
	var sum clientTally
	for _, t := range r.tallies {
		sum.latencyMs = append(sum.latencyMs, t.latencyMs...)
		sum.passOf = append(sum.passOf, t.passOf...)
		sum.overlapSum += t.overlapSum
		sum.attempted += t.attempted
		sum.failed += t.failed
		if sum.firstFail == "" {
			sum.firstFail = t.firstFail
		}
	}
	return sum
}

// perPass groups the recorded latencies by pass and returns, for each
// whole pass of the last run, its query rate and the p-quantiles of
// its latencies.
func (r *runner) perPass(t clientTally, ps ...float64) (rates []float64, quantiles [][]float64) {
	passes := len(r.marks) - 1
	byPass := make([][]float64, passes)
	for i, ms := range t.latencyMs {
		byPass[t.passOf[i]] = append(byPass[t.passOf[i]], ms)
	}
	quantiles = make([][]float64, len(ps))
	for k := 0; k < passes; k++ {
		rates = append(rates, float64(len(r.order))/r.marks[k+1].Sub(r.marks[k]).Seconds())
		sorted := sortedCopy(byPass[k])
		for i, p := range ps {
			quantiles[i] = append(quantiles[i], percentile(sorted, p))
		}
	}
	return rates, quantiles
}
