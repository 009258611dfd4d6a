package experiments

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// boolFixture evaluates over toyLists.
func boolFixture(t *testing.T) (*boolEvaluator, *postings.Index) {
	t.Helper()
	ix, pages, err := buildDocSorted(toyLists(), 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(pages)
	mgr, err := buffer.NewManager(32, 1, st, ix, func(int) buffer.Policy { return buffer.NewLRU() })
	if err != nil {
		t.Fatal(err)
	}
	ev, err := newBoolEvaluator(ix, mgr)
	if err != nil {
		t.Fatal(err)
	}
	return ev, ix
}

func docIDs(ids ...postings.DocID) []postings.DocID { return ids }

func evalBoolean(t *testing.T, ev *boolEvaluator, ix *postings.Index, q string) []postings.DocID {
	t.Helper()
	expr, err := parseBoolean(q, ix.LookupTerm)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	res, err := ev.Evaluate(expr)
	if err != nil {
		t.Fatalf("eval %q: %v", q, err)
	}
	return res.Docs
}

func TestBooleanOperators(t *testing.T) {
	ev, ix := boolFixture(t)
	cases := []struct {
		q    string
		want []postings.DocID
	}{
		{"alpha", docIDs(0, 1, 2, 3, 4, 5)},
		{"alpha AND beta", docIDs(1)},
		{"alpha OR beta", docIDs(0, 1, 2, 3, 4, 5, 6, 7)},
		{"alpha AND gamma", docIDs(0)},
		{"beta AND gamma", nil},
		{"alpha AND NOT beta", docIDs(0, 2, 3, 4, 5)},
		{"NOT alpha", docIDs(6, 7, 8, 9)},
		{"(alpha OR beta) AND gamma", docIDs(0)},
		{"alpha AND (beta OR gamma)", docIDs(0, 1)},
		{"NOT (alpha OR beta)", docIDs(8, 9)},
		{"alpha and beta", docIDs(1)}, // keywords case-insensitive
	}
	for _, c := range cases {
		got := evalBoolean(t, ev, ix, c.q)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestBooleanPrecedence(t *testing.T) {
	ev, ix := boolFixture(t)
	// AND binds tighter: gamma OR alpha AND beta = gamma OR (alpha AND beta).
	got := evalBoolean(t, ev, ix, "gamma OR alpha AND beta")
	if !reflect.DeepEqual(got, docIDs(0, 1)) {
		t.Errorf("precedence wrong: %v", got)
	}
}

func TestBooleanParseErrors(t *testing.T) {
	_, ix := boolFixture(t)
	bad := []string{
		"",
		"alpha AND",
		"AND alpha",
		"(alpha",
		"alpha)",
		"alpha OR OR beta",
		"zzzz",
		"alpha AND zzzz",
		"NOT",
	}
	for _, q := range bad {
		if _, err := parseBoolean(q, ix.LookupTerm); err == nil {
			t.Errorf("parseBoolean(%q) should fail", q)
		}
	}
}

func TestBooleanExprString(t *testing.T) {
	_, ix := boolFixture(t)
	expr, err := parseBoolean("alpha AND NOT (beta OR gamma)", ix.LookupTerm)
	if err != nil {
		t.Fatal(err)
	}
	want := "(alpha AND (NOT (beta OR gamma)))"
	if expr.String() != want {
		t.Errorf("String = %q, want %q", expr.String(), want)
	}
}

func TestBooleanReadsAccounting(t *testing.T) {
	ev, ix := boolFixture(t)
	got := evalBoolean(t, ev, ix, "alpha AND beta")
	_ = got
	// alpha: 3 pages, beta: 2 pages — all cold.
	expr, _ := parseBoolean("alpha AND beta", ix.LookupTerm)
	res, err := ev.Evaluate(expr)
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesRead != 0 {
		t.Errorf("warm evaluation read %d pages, want 0", res.PagesRead)
	}
}

// TestMergeOpsRandomized cross-checks the sorted-list merges against
// map-based set algebra.
func TestMergeOpsRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	mkSet := func() ([]postings.DocID, map[postings.DocID]bool) {
		n := r.Intn(40)
		set := map[postings.DocID]bool{}
		for i := 0; i < n; i++ {
			set[postings.DocID(r.Intn(60))] = true
		}
		list := make([]postings.DocID, 0, len(set))
		for d := range set {
			list = append(list, d)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		return list, set
	}
	for iter := 0; iter < 300; iter++ {
		a, aset := mkSet()
		b, bset := mkSet()
		check := func(name string, got []postings.DocID, pred func(postings.DocID) bool) {
			want := []postings.DocID{}
			for d := postings.DocID(0); d < 60; d++ {
				if pred(d) {
					want = append(want, d)
				}
			}
			if len(got) == 0 && len(want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d %s: %v != %v", iter, name, got, want)
			}
		}
		check("intersect", intersect(a, b), func(d postings.DocID) bool { return aset[d] && bset[d] })
		check("union", union(a, b), func(d postings.DocID) bool { return aset[d] || bset[d] })
		check("difference", difference(a, b), func(d postings.DocID) bool { return aset[d] && !bset[d] })
	}
}
