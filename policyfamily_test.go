package bufir

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// policyFamily is every public replacement policy — the paper's three —
// in the order the buffer layer registers them.
var policyFamily = []Policy{LRU, MRU, RAP}

// familyEvalOptions pins the filtering constants explicitly so private
// Sessions (paper-calibrated defaults) and Engines (collection-tuned
// defaults) evaluate with identical parameters and their results can
// be compared bit for bit.
var familyEvalOptions = EvalOptions{Algorithm: DF, CAdd: 0.005, CIns: 0.15}

// TestPolicyFamilyEndToEnd: every policy constant must be accepted by
// every public entry point — private Session, concurrent Engine and
// the scatter-gather Router — and a 1-worker
// Engine must replay a serial Session's refinement stream
// bit-identically (DF's rankings are buffer-independent, and with one
// worker the page-reference stream is too, so even the read counters
// must match).
func TestPolicyFamilyEndToEnd(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	steps := addOnlySteps(q)
	// Small enough that the tiny topic's working set forces evictions,
	// so each policy's replacement decisions are actually exercised.
	const pages = 16

	for _, pol := range policyFamily {
		t.Run(string(pol), func(t *testing.T) {
			// Serial reference: a private Session walking the stream.
			s, err := ix.NewSession(SessionConfig{EvalOptions: familyEvalOptions, Policy: pol, BufferPages: pages})
			if err != nil {
				t.Fatalf("NewSession(%s): %v", pol, err)
			}
			want := make([]*Result, len(steps))
			for i, step := range steps {
				res, err := s.Search(step)
				if err != nil {
					t.Fatalf("session step %d: %v", i, err)
				}
				want[i] = stripVolatile(res)
			}
			if s.BufferStats().Evictions == 0 {
				t.Errorf("%s: no evictions — the pool is too large to exercise the policy", pol)
			}

			// 1-worker Engine on a fresh index: bit-identical replay.
			_, ixE := testIndex(t)
			eng, err := ixE.NewEngine(EngineConfig{EvalOptions: familyEvalOptions, Workers: 1, Shards: 1, BufferPages: pages, Policy: pol})
			if err != nil {
				t.Fatalf("NewEngine(%s): %v", pol, err)
			}
			defer eng.Close()
			for i, step := range steps {
				res, err := eng.SearchContext(context.Background(), 0, step)
				if err != nil {
					t.Fatalf("engine step %d: %v", i, err)
				}
				if got := stripVolatile(res); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("%s: engine step %d differs from serial session\nsession: %+v\nengine:  %+v",
						pol, i, want[i], got)
				}
			}

			// Router over a backend Engine running the policy.
			_, ixR := testIndex(t)
			backend, err := ixR.NewEngine(EngineConfig{EvalOptions: familyEvalOptions, Workers: 1, BufferPages: pages, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			router, err := NewRouter([]Searcher{backend}, RouterConfig{})
			if err != nil {
				t.Fatalf("NewRouter(%s): %v", pol, err)
			}
			defer router.Close()
			for i, step := range steps {
				res, err := router.SearchContext(context.Background(), 0, step)
				if err != nil {
					t.Fatalf("routed step %d: %v", i, err)
				}
				if got := stripVolatile(res); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s: routed step %d differs from serial session", pol, i)
				}
			}
		})
	}
}

// TestPolicyFamilyDeterministicReplay: two identical 1-worker engine
// runs must agree on every counter for every policy.
func TestPolicyFamilyDeterministicReplay(t *testing.T) {
	col, _ := testIndex(t)
	for _, pol := range policyFamily {
		t.Run(string(pol), func(t *testing.T) {
			run := func() []*Result {
				_, ix := testIndex(t)
				q, err := ix.TopicQuery(col.Topics[1])
				if err != nil {
					t.Fatal(err)
				}
				eng, err := ix.NewEngine(EngineConfig{EvalOptions: familyEvalOptions, Workers: 1, Shards: 1, BufferPages: 12, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				var out []*Result
				for _, step := range addOnlySteps(q) {
					res, err := eng.SearchContext(context.Background(), 0, step)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, stripVolatile(res))
				}
				return out
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: two identical 1-worker replays diverged", pol)
			}
		})
	}
}

// TestPolicyFamilyUnknownRejected: every constructor rejects an unknown
// policy name with ErrUnknownPolicy — among them the extension
// policies, which only the experiments build.
func TestPolicyFamilyUnknownRejected(t *testing.T) {
	_, ix := testIndex(t)
	for _, pol := range []Policy{"CLOCK", "BOGUS", "LRU-2", "2Q", "ADAPTIVE"} {
		if _, err := ix.NewSession(SessionConfig{Policy: pol}); !errors.Is(err, ErrUnknownPolicy) {
			t.Errorf("NewSession(%s): got %v, want ErrUnknownPolicy", pol, err)
		}
		if _, err := ix.NewEngine(EngineConfig{Policy: pol, BufferPages: 8}); !errors.Is(err, ErrUnknownPolicy) {
			t.Errorf("NewEngine(%s): got %v, want ErrUnknownPolicy", pol, err)
		}
		if svc, err := Open("synth:tiny:21", WithEngine(EngineConfig{Policy: pol, BufferPages: 8})); !errors.Is(err, ErrUnknownPolicy) {
			if err == nil {
				svc.Close()
			}
			t.Errorf("Open(WithEngine(%s)): got %v, want ErrUnknownPolicy", pol, err)
		}
	}
}
