package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingParallelChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"sequential", []interval{{110, 120}, {130, 150}}, 70},
		{"parallel and overlapping", []interval{{110, 150}, {120, 160}, {115, 130}}, 50},
		{"one inside another", []interval{{110, 180}, {120, 130}}, 30},
		{"unsorted", []interval{{150, 160}, {110, 120}}, 80},
		{"sticking out of the parent", []interval{{90, 110}, {190, 250}}, 80},
		{"covering it all", []interval{{100, 150}, {150, 200}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// A recorder's reduction credits each layer with its own time only:
// the evaluator's span less the pool calls inside it, a missing
// fetch's less the store read inside it.
func TestRecorderReduce(t *testing.T) {
	r := newRecorder(time.Now())
	r.on = true
	put := func(kind spanKind, parent int32, start, end int64) int32 {
		r.spans = append(r.spans, span{kind: kind, parent: parent, interval: interval{start, end}})
		return int32(len(r.spans) - 1)
	}
	req := put(kindRequest, -1, 0, 1000)
	ev := put(kindEval, req, 10, 990)
	put(kindSetQuery, ev, 20, 120)
	put(kindFetchHit, ev, 200, 210)
	miss := put(kindFetchMiss, ev, 300, 500)
	put(kindStoreRead, miss, 320, 480)

	perReq, byKind, missSelf := r.reduce(1)
	lt := perReq[0]
	if lt.root.dur() != 1000 || lt.eval != 980-100-10-200 || lt.buffer != 100+10+40 || lt.storage != 160 {
		t.Fatalf("layer times %+v", lt)
	}
	if got := lt.root.dur() - lt.attributed(); got != 20 {
		t.Errorf("unattributed %d, want 20", got)
	}
	if len(byKind[kindFetchMiss]) != 1 || byKind[kindFetchMiss][0] != 200 {
		t.Errorf("miss durations %v", byKind[kindFetchMiss])
	}
	if len(missSelf) != 1 || missSelf[0] != 40 {
		t.Errorf("miss self times %v", missSelf)
	}
}

// Light calls have no spans; their estimated time moves from the
// evaluator to the buffer.
func TestLightCallsMoveFromEvalToBuffer(t *testing.T) {
	r := newRecorder(time.Now())
	r.on = true
	r.spans = append(r.spans,
		span{kind: kindRequest, parent: -1, interval: interval{0, 1000}},
		span{kind: kindEval, parent: 0, interval: interval{0, 1000}})
	timed := 0
	for i := 0; i < 2*sampleEvery; i++ {
		if r.countLight(lightResident) {
			timed++
		}
	}
	if timed != 2 {
		t.Fatalf("%d of %d calls timed, want 2", timed, 2*sampleEvery)
	}
	r.light[lightResident].sampled = []float64{10, 10}
	perReq, _, _ := r.reduce(1)
	want := int64(2 * sampleEvery * 10)
	if perReq[0].buffer != want || perReq[0].eval != 1000-want {
		t.Errorf("layer times %+v, want %d moved to the buffer", perReq[0], want)
	}
}
