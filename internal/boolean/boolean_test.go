package boolean

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// fixture: three terms over 10 docs.
//
//	alpha: 0 1 2 3 4 5
//	beta:  1 6 7
//	gamma: 0
func fixture(t *testing.T) (*Evaluator, *postings.Index) {
	t.Helper()
	lists := []postings.TermPostings{
		{Name: "alpha", Entries: []postings.Entry{
			{Doc: 0, Freq: 9}, {Doc: 1, Freq: 6}, {Doc: 2, Freq: 4},
			{Doc: 3, Freq: 2}, {Doc: 4, Freq: 1}, {Doc: 5, Freq: 1},
		}},
		{Name: "beta", Entries: []postings.Entry{
			{Doc: 1, Freq: 5}, {Doc: 6, Freq: 3}, {Doc: 7, Freq: 1},
		}},
		{Name: "gamma", Entries: []postings.Entry{{Doc: 0, Freq: 2}}},
	}
	ix, pages, err := postings.BuildDocSorted(lists, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(pages)
	mgr, err := buffer.NewManager(32, 1, st, ix, func(int) buffer.Policy { return buffer.NewLRU() })
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(ix, mgr)
	if err != nil {
		t.Fatal(err)
	}
	return ev, ix
}

func lookupOf(ix *postings.Index) func(string) (postings.TermID, bool) {
	return func(s string) (postings.TermID, bool) { return ix.LookupTerm(s) }
}

func docs(ids ...postings.DocID) []postings.DocID { return ids }

func evalQuery(t *testing.T, ev *Evaluator, ix *postings.Index, q string) []postings.DocID {
	t.Helper()
	expr, err := Parse(q, lookupOf(ix))
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
	ev, ix := fixture(t)
	cases := []struct {
		q    string
		want []postings.DocID
	}{
		{"alpha", docs(0, 1, 2, 3, 4, 5)},
		{"alpha AND beta", docs(1)},
		{"alpha OR beta", docs(0, 1, 2, 3, 4, 5, 6, 7)},
		{"alpha AND gamma", docs(0)},
		{"beta AND gamma", nil},
		{"alpha AND NOT beta", docs(0, 2, 3, 4, 5)},
		{"NOT alpha", docs(6, 7, 8, 9)},
		{"(alpha OR beta) AND gamma", docs(0)},
		{"alpha AND (beta OR gamma)", docs(0, 1)},
		{"NOT (alpha OR beta)", docs(8, 9)},
		{"alpha and beta", docs(1)}, // keywords case-insensitive
	}
	for _, c := range cases {
		got := evalQuery(t, ev, ix, c.q)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestBooleanPrecedence(t *testing.T) {
	ev, ix := fixture(t)
	// AND binds tighter: gamma OR alpha AND beta = gamma OR (alpha AND beta).
	got := evalQuery(t, ev, ix, "gamma OR alpha AND beta")
	if !reflect.DeepEqual(got, docs(0, 1)) {
		t.Errorf("precedence wrong: %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	_, ix := fixture(t)
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
		if _, err := Parse(q, lookupOf(ix)); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestExprString(t *testing.T) {
	_, ix := fixture(t)
	expr, err := Parse("alpha AND NOT (beta OR gamma)", lookupOf(ix))
	if err != nil {
		t.Fatal(err)
	}
	want := "(alpha AND (NOT (beta OR gamma)))"
	if expr.String() != want {
		t.Errorf("String = %q, want %q", expr.String(), want)
	}
}

func TestTermsOfAndQueryOf(t *testing.T) {
	_, ix := fixture(t)
	expr, _ := Parse("alpha AND (beta OR alpha) AND NOT gamma", lookupOf(ix))
	terms := TermsOf(expr)
	if len(terms) != 3 {
		t.Errorf("TermsOf = %v, want 3 distinct terms", terms)
	}
	q := QueryOf(expr)
	if len(q) != 3 || q[0].Fqt != 1 {
		t.Errorf("QueryOf = %v", q)
	}
}

func TestBooleanReadsAccounting(t *testing.T) {
	ev, ix := fixture(t)
	got := evalQuery(t, ev, ix, "alpha AND beta")
	_ = got
	// alpha: 3 pages, beta: 2 pages — all cold.
	expr, _ := Parse("alpha AND beta", lookupOf(ix))
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
