package main

import (
	"sort"
	"time"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kindRequest   spanKind = iota // one client request into the assembly
	kindRebind                    // binding a user to a new generation, as engine.worker does
	kindEval                      // Evaluator.EvaluateContext
	kindFetchHit                  // Pool.FetchContext served from the pool
	kindFetchMiss                 // Pool.FetchContext that read the store
	kindSetQuery                  // Pool.SetQuery
	kindStoreRead                 // PageReader.ReadContext on a base store
	kindOverlay                   // PageReader.ReadContext on a live overlay
	numKinds
)

// span is one timed call: its layer, the request that caused it, the
// span it ran inside (an index into the same recorder, -1 for a
// root), and its start and end in nanoseconds since the trace began.
type span struct {
	kind   spanKind
	req    int32
	parent int32
	interval
}

// interval is a half-open stretch of trace time.
type interval struct{ start, end int64 }

func (i interval) dur() int64 { return i.end - i.start }

// lightCall indexes the pool calls that are too short and too many to
// give a span each: a BAF query asks ResidentPages some 500 times at
// about 10 ns, and two clock reads around each would cost more than
// the calls. They are counted per request, and every sampleEvery-th
// one is timed.
type lightCall int

const (
	lightResident lightCall = iota // Pool.ResidentPages
	lightUnpin                     // Pool.Unpin
	numLight
)

const sampleEvery = 16

// lightStats is the tally of one kind of light call.
type lightStats struct {
	calls   int64
	sampled []float64 // durations of the timed calls, ns
}

// recorder keeps the spans of one chain of calls in memory. A chain is
// driven by one goroutine at a time (one client; on the sharded
// workload one recorder per shard), so a stack of open spans gives
// every span its parent without any locking.
type recorder struct {
	t0    time.Time
	on    bool
	req   int32
	spans []span
	open  []int32

	light [numLight]lightStats
	// lightPerReq[req][k] counts request req's light calls of kind k.
	lightPerReq [][numLight]int32
}

func newRecorder(t0 time.Time) *recorder {
	return &recorder{t0: t0, spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span inside the innermost open one and returns its
// handle, -1 while recording is off.
func (r *recorder) begin(kind spanKind) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: kind, req: r.req, parent: parent, interval: interval{start: r.now()}})
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	r.spans[id].end = r.now()
	r.open = r.open[:len(r.open)-1]
}

// endAs closes the span and settles a kind known only afterwards
// (whether a fetch missed).
func (r *recorder) endAs(id int32, kind spanKind) {
	if id < 0 {
		return
	}
	r.spans[id].kind = kind
	r.end(id)
}

// countLight books one light call against the current request and
// reports whether this one is to be timed.
func (r *recorder) countLight(k lightCall) bool {
	for int(r.req) >= len(r.lightPerReq) {
		r.lightPerReq = append(r.lightPerReq, [numLight]int32{})
	}
	r.lightPerReq[r.req][k]++
	r.light[k].calls++
	return r.light[k].calls%sampleEvery == 0
}

// timeLight books the duration of a timed light call that began at
// start.
func (r *recorder) timeLight(k lightCall, start int64) {
	r.light[k].sampled = append(r.light[k].sampled, float64(r.now()-start))
}

// covered returns how much of [start, end) the intervals cover, taken
// as a union: children that run in parallel and overlap are not
// counted twice, and parts of a child outside the parent not at all.
func covered(start, end int64, children []interval) int64 {
	if len(children) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(children, func(i, j int) bool { return children[i].start < children[j].start }) {
		sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	}
	var sum int64
	at := start
	for _, c := range children {
		lo, hi := c.start, c.end
		if lo < at {
			lo = at
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

// selfTime is a span's duration minus what its child spans cover.
func selfTime(s interval, children []interval) int64 {
	return s.end - s.start - covered(s.start, s.end, children)
}

// layerTimes is the self time of one request's span tree by layer, in
// nanoseconds, and the tree's root span.
type layerTimes struct {
	root                          interval
	engine, eval, buffer, storage int64
}

func (l layerTimes) attributed() int64 { return l.engine + l.eval + l.buffer + l.storage }

// reduce folds a recorder's spans into per-request layer self times
// (indexed by request id) and returns the raw durations by kind for
// the per-call medians. The light calls have no spans: their
// estimated time (calls × mean timed duration) moves from the
// evaluator's self time, where it was spent, to the buffer's.
func (r *recorder) reduce(requests int) (perReq []layerTimes, byKind [numKinds][]float64, missSelf []float64) {
	perReq = make([]layerTimes, requests)
	// One goroutine drives a chain, so a span's children follow one
	// another and what they cover is the sum of their durations.
	childNs := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			childNs[s.parent] += s.dur()
		}
	}
	for i, s := range r.spans {
		self := s.dur() - childNs[i]
		byKind[s.kind] = append(byKind[s.kind], float64(s.dur()))
		lt := &perReq[s.req]
		switch s.kind {
		case kindRequest:
			lt.root = s.interval
		case kindRebind:
			lt.engine += self
		case kindEval:
			lt.eval += self
		case kindFetchHit, kindFetchMiss, kindSetQuery:
			lt.buffer += self
			if s.kind == kindFetchMiss {
				missSelf = append(missSelf, float64(self))
			}
		case kindStoreRead, kindOverlay:
			lt.storage += self
		}
	}
	var meanNs [numLight]float64
	for k := range meanNs {
		meanNs[k] = mean(r.light[k].sampled)
	}
	for req, calls := range r.lightPerReq {
		if req >= requests {
			break
		}
		var est float64
		for k, n := range calls {
			est += float64(n) * meanNs[k]
		}
		perReq[req].eval -= int64(est)
		perReq[req].buffer += int64(est)
	}
	return perReq, byKind, missSelf
}
