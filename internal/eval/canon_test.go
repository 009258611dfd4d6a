package eval

import (
	"bytes"
	"math/rand"
	"testing"

	"bufir/internal/postings"
)

// TestCanonicalQueryMergesAndSorts: duplicates merge by summing f_qt
// and the result is TermID-sorted.
func TestCanonicalQueryMergesAndSorts(t *testing.T) {
	q := Query{{Term: 7, Fqt: 2}, {Term: 3, Fqt: 1}, {Term: 7, Fqt: 3}, {Term: 0, Fqt: 4}}
	got := CanonicalQuery(q)
	want := Query{{Term: 0, Fqt: 4}, {Term: 3, Fqt: 1}, {Term: 7, Fqt: 5}}
	if len(got) != len(want) {
		t.Fatalf("canonical = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("canonical = %v, want %v", got, want)
		}
	}
	// The input was not modified.
	if q[0].Term != 7 || q[0].Fqt != 2 || len(q) != 4 {
		t.Fatal("CanonicalQuery mutated its input")
	}
}

// TestCanonicalKeyProperty: over random queries, every permutation
// and every split of a duplicate term encodes to the same cache key,
// and genuinely different queries (a bumped frequency, an extra term,
// two queries whose 64-bit FNV-1a hashes collide) encode differently.
func TestCanonicalKeyProperty(t *testing.T) {
	q1 := Query{{Term: 1, Fqt: 4001132572}, {Term: 2, Fqt: 4070952487}}
	q2 := Query{{Term: 1, Fqt: 3160233565}, {Term: 2, Fqt: 2083523208}}
	if CanonicalEncoding(q1) == CanonicalEncoding(q2) {
		t.Fatal("two different queries share a key")
	}
	r := rand.New(rand.NewSource(8))
	for iter := 0; iter < 300; iter++ {
		n := 1 + r.Intn(6)
		q := make(Query, 0, n)
		seen := map[postings.TermID]bool{}
		for len(q) < n {
			tm := postings.TermID(r.Intn(50))
			if seen[tm] {
				continue
			}
			seen[tm] = true
			q = append(q, QueryTerm{Term: tm, Fqt: 1 + r.Intn(5)})
		}
		key := CanonicalEncoding(q)

		// Permutation invariance.
		perm := append(Query{}, q...)
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if CanonicalEncoding(perm) != key {
			t.Fatalf("iter %d: permuted query encoded differently", iter)
		}

		// Split invariance: a term with fqt >= 2 listed twice.
		var split Query
		didSplit := false
		for _, qt := range perm {
			if !didSplit && qt.Fqt >= 2 {
				cut := 1 + r.Intn(qt.Fqt-1)
				split = append(split, QueryTerm{Term: qt.Term, Fqt: cut},
					QueryTerm{Term: qt.Term, Fqt: qt.Fqt - cut})
				didSplit = true
			} else {
				split = append(split, qt)
			}
		}
		if CanonicalEncoding(split) != key {
			t.Fatalf("iter %d: split-duplicate query encoded differently", iter)
		}

		// Sensitivity: bump one frequency, or add a fresh term.
		bump := append(Query{}, q...)
		bump[r.Intn(len(bump))].Fqt++
		if CanonicalEncoding(bump) == key {
			t.Fatalf("iter %d: raised frequency kept the same key", iter)
		}
		extra := append(append(Query{}, q...), QueryTerm{Term: postings.TermID(50 + r.Intn(10)), Fqt: 1})
		if CanonicalEncoding(extra) == key {
			t.Fatalf("iter %d: added term kept the same key", iter)
		}
	}
}

// TestAddOnlyStep covers the refinement-step classifier.
func TestAddOnlyStep(t *testing.T) {
	base := Query{{Term: 1, Fqt: 2}, {Term: 5, Fqt: 1}}
	cases := []struct {
		name string
		next Query
		want bool
	}{
		{"identical", Query{{Term: 1, Fqt: 2}, {Term: 5, Fqt: 1}}, true},
		{"permuted", Query{{Term: 5, Fqt: 1}, {Term: 1, Fqt: 2}}, true},
		{"added term", Query{{Term: 1, Fqt: 2}, {Term: 5, Fqt: 1}, {Term: 9, Fqt: 1}}, true},
		{"raised fqt", Query{{Term: 1, Fqt: 3}, {Term: 5, Fqt: 1}}, true},
		{"split duplicate", Query{{Term: 1, Fqt: 1}, {Term: 5, Fqt: 1}, {Term: 1, Fqt: 1}}, true},
		{"dropped term", Query{{Term: 1, Fqt: 2}}, false},
		{"lowered fqt", Query{{Term: 1, Fqt: 1}, {Term: 5, Fqt: 1}}, false},
		{"swapped term", Query{{Term: 1, Fqt: 2}, {Term: 6, Fqt: 1}}, false},
	}
	for _, tc := range cases {
		if got := AddOnlyStep(base, tc.next); got != tc.want {
			t.Errorf("%s: AddOnlyStep = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// queryFromBytes decodes fuzz input into a query: consecutive byte
// pairs become (term, fqt) with small moduli so collisions (duplicate
// terms) are frequent.
func queryFromBytes(data []byte) Query {
	var q Query
	for i := 0; i+1 < len(data) && len(q) < 32; i += 2 {
		q = append(q, QueryTerm{
			Term: postings.TermID(data[i] % 16),
			Fqt:  1 + int(data[i+1]%8),
		})
	}
	return q
}

// FuzzCanonicalQuery: for any byte-derived query, canonicalization is
// idempotent, order- and split-insensitive, frequency-preserving, and
// the key is a pure function of the canonical form that a changed
// frequency changes.
func FuzzCanonicalQuery(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{3, 2, 3, 5})
	f.Add([]byte{1, 1, 2, 2, 3, 3, 4, 4, 5, 5})
	f.Add([]byte{15, 7, 15, 7, 15, 7})
	f.Add(bytes.Repeat([]byte{9, 3, 2, 6}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		q := queryFromBytes(data)
		canon := CanonicalQuery(q)
		key := CanonicalEncoding(q)

		// Idempotence and key agreement.
		again := CanonicalQuery(canon)
		if len(again) != len(canon) {
			t.Fatal("canonicalization not idempotent")
		}
		total := map[postings.TermID]int{}
		for i := range canon {
			if again[i] != canon[i] {
				t.Fatal("canonicalization not idempotent")
			}
			if i > 0 && canon[i-1].Term >= canon[i].Term {
				t.Fatal("canonical form not strictly TermID-sorted")
			}
			total[canon[i].Term] = canon[i].Fqt
		}
		if CanonicalEncoding(canon) != key {
			t.Fatal("canonical form encodes differently from the raw query")
		}
		if len(canon) > 0 {
			bump := append(Query{}, canon...)
			bump[len(bump)-1].Fqt += 1 << 32
			if CanonicalEncoding(bump) == key {
				t.Fatal("a different query shares the key")
			}
		}

		// Frequency preservation: the canonical form holds exactly the
		// summed frequencies of the raw query.
		raw := map[postings.TermID]int{}
		for _, qt := range q {
			raw[qt.Term] += qt.Fqt
		}
		if len(raw) != len(total) {
			t.Fatalf("canonical form has %d terms, raw merge %d", len(total), len(raw))
		}
		for tm, fqt := range raw {
			if total[tm] != fqt {
				t.Fatalf("term %d: canonical fqt %d, raw sum %d", tm, total[tm], fqt)
			}
		}

		// Reversal invariance (a deterministic permutation).
		rev := make(Query, len(q))
		for i, qt := range q {
			rev[len(q)-1-i] = qt
		}
		if CanonicalEncoding(rev) != key {
			t.Fatal("reversed query encodes differently")
		}

		// An ADD-ONLY self-step is always true; with one more
		// occurrence of the first term it stays true.
		if len(q) > 0 {
			if !AddOnlyStep(q, q) {
				t.Fatal("a query is not ADD-ONLY of itself")
			}
			grown := append(append(Query{}, q...), QueryTerm{Term: q[0].Term, Fqt: 1})
			if !AddOnlyStep(q, grown) {
				t.Fatal("adding an occurrence broke AddOnlyStep")
			}
			if AddOnlyStep(grown, q) {
				t.Fatal("losing an occurrence still counted as ADD-ONLY")
			}
		}
	})
}
