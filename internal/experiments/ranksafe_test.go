package experiments

import (
	"bytes"
	"reflect"
	"testing"
)

// TestRankSafeSmoke runs the E27 sweep at tiny scale. The headline
// acceptance — SafeExactEverywhere — must hold at every scale: exact
// evaluation's contract is bit-exactness whatever the pool holds, and a
// tiny corpus is no excuse.
func TestRankSafeSmoke(t *testing.T) {
	env := newTinyEnv(t)
	res, err := env.RunRankSafe(4)
	if err != nil {
		t.Fatalf("RunRankSafe: %v", err)
	}
	wantMethods := []string{"FULL", "DF", "BAF"}
	if !reflect.DeepEqual(res.Methods, wantMethods) {
		t.Errorf("methods = %v, want %v", res.Methods, wantMethods)
	}
	if res.Anchors == 0 || res.Queries <= res.Anchors {
		t.Errorf("workload has %d queries, %d anchors: want prefixes plus full topics", res.Queries, res.Anchors)
	}
	if got, want := len(res.Rows), len(res.Methods)*len(res.Policies)*len(res.Sizes); got != want {
		t.Fatalf("rows = %d, want %d (methods x policies x sizes)", got, want)
	}
	if !res.SafeExactEverywhere {
		t.Error("FULL produced a non-exact answer")
	}
	for _, row := range res.Rows {
		if row.Overlap < 0 || row.Overlap > 1 {
			t.Errorf("%s %s/%d: overlap %v outside [0,1]", row.Method, row.Policy, row.BufPages, row.Overlap)
		}
		if row.PagesRead < 0 || row.PagesRead > row.PagesProcessed {
			t.Errorf("%s %s/%d: reads %d, processed %d", row.Method, row.Policy, row.BufPages, row.PagesRead, row.PagesProcessed)
		}
		if row.Method == "FULL" && (!row.Exact || row.Overlap != 1) {
			t.Errorf("FULL %s/%d: exact=%v overlap=%v, want exact with overlap 1",
				row.Policy, row.BufPages, row.Exact, row.Overlap)
		}
		// The filters never process more pages than exhaustive
		// evaluation of the same workload in the same cell.
		if full, ok := res.row("FULL", row.Policy, row.BufPages); !ok {
			t.Fatalf("no FULL row for %s/%d", row.Policy, row.BufPages)
		} else if row.Method == "DF" && row.PagesProcessed > full.PagesProcessed {
			t.Errorf("DF %s/%d processed %d pages, FULL only %d",
				row.Policy, row.BufPages, row.PagesProcessed, full.PagesProcessed)
		}
	}

	var buf bytes.Buffer
	res.Format(&buf)
	if buf.Len() == 0 {
		t.Error("empty Format output")
	}
}

// TestRankSafeDeterministic: the sweep is a pure function of the
// environment — the replay guarantee the bench JSON trend line needs.
func TestRankSafeDeterministic(t *testing.T) {
	env := newTinyEnv(t)
	a, err := env.RunRankSafe(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.RunRankSafe(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical ranksafe runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}
