package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"bufir/internal/buffer"
)

// TestDriftSmoke runs the E26 three-phase sweep at tiny scale: the
// structural invariants and the two static-policy anchors must hold.
// The ADAPTIVE within-10% acceptance is asserted by make bench-policy
// at default scale — at tiny scale the policy gaps are a handful of
// reads and the ratio is noise.
func TestDriftSmoke(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunDrift(4, 7)
	if err != nil {
		t.Fatalf("RunDrift: %v", err)
	}
	if !reflect.DeepEqual(res.Policies, buffer.PolicyNames) {
		t.Errorf("policies = %v, want the full family %v", res.Policies, buffer.PolicyNames)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %v, want 3", res.Phases)
	}
	anchored := false
	for _, s := range res.Sizes {
		if s == res.Anchor {
			anchored = true
		}
	}
	if !anchored {
		t.Fatalf("anchor %d not in sweep %v", res.Anchor, res.Sizes)
	}
	for _, pol := range res.Policies {
		series := res.Series[pol]
		if len(series) != len(res.Sizes) {
			t.Fatalf("%s: %d rows for %d sizes", pol, len(series), len(res.Sizes))
		}
		for i, reads := range series {
			if len(reads) != len(res.Phases) {
				t.Fatalf("%s size %d: %d phases", pol, res.Sizes[i], len(reads))
			}
			// Refine and churn always read something; the storm can hit
			// zero once everything is resident from the churn.
			if reads[0] <= 0 || reads[1] <= 0 || reads[2] < 0 {
				t.Errorf("%s at %d buffers: non-positive reads %v", pol, res.Sizes[i], reads)
			}
		}
		// A bigger pool never reads more in the refine phase (the
		// other phases warm-start from whatever the previous phase
		// left, so only the first phase is monotone by construction).
		for i := 1; i < len(series); i++ {
			if series[i][0] > series[i-1][0] {
				t.Errorf("%s: refine reads grew with the pool: %d pages %d -> %d pages %d",
					pol, res.Sizes[i-1], series[i-1][0], res.Sizes[i], series[i][0])
			}
		}
	}
	// The drift premise: each static expert loses one phase at the
	// anchor. These are the workload-construction invariants; if they
	// fail, the phases no longer model drift.
	if !res.LRULosesRefine {
		t.Error("LRU should lose the refine phase to RAP at the anchor")
	}
	if !res.RAPLosesChurn {
		t.Error("RAP should lose the churn phase to LRU at the anchor")
	}

	var buf bytes.Buffer
	res.Format(&buf)
	if buf.Len() == 0 {
		t.Error("empty Format output")
	}
}

// TestDriftDeterministic: the whole three-phase sweep is a pure
// function of (environment seed, fault seed) — the bit-identical
// replay guarantee every policy in the family carries.
func TestDriftDeterministic(t *testing.T) {
	env := newTinyEnv(t)
	a, err := env.RunDrift(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.RunDrift(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical drift runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}
