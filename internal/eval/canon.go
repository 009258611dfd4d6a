// Query canonicalization for the refinement result cache. Two query
// spellings that mean the same bag of weighted terms — permuted term
// order, a term listed twice instead of once with the summed
// frequency — must map to one cache key, or the cache leaks hits it
// already paid for.
package eval

import (
	"encoding/binary"
	"sort"

	"bufir/internal/postings"
)

// CanonicalQuery returns q in canonical form: duplicate terms merged
// by summing their query frequencies, then sorted by TermID. The
// result is a fresh slice; q is not modified. Canonical form is the
// identity under which the refinement cache and AddOnlyStep compare
// queries — evaluation itself is stricter (checkQuery rejects
// duplicates), so callers canonicalize before evaluating.
func CanonicalQuery(q Query) Query {
	merged := make(map[postings.TermID]int, len(q))
	for _, qt := range q {
		merged[qt.Term] += qt.Fqt
	}
	out := make(Query, 0, len(merged))
	for t, fqt := range merged {
		out = append(out, QueryTerm{Term: t, Fqt: fqt})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Term < out[j].Term })
	return out
}

// CanonicalEncoding returns q's canonical form encoded exactly: the
// (term, f_qt) pairs in TermID order, each number a signed varint.
// Varints delimit themselves, so two queries share an encoding exactly
// when their canonical forms are equal — whatever their term order or
// duplicate splitting — which is what lets the refinement cache use it
// as its key without ever comparing the queries themselves.
func CanonicalEncoding(q Query) string {
	var b []byte
	for _, qt := range CanonicalQuery(q) {
		b = binary.AppendVarint(b, int64(qt.Term))
		b = binary.AppendVarint(b, int64(qt.Fqt))
	}
	return string(b)
}

// AddOnlyStep reports whether next is an ADD-ONLY refinement of prev
// under canonical comparison: every term of prev appears in next with
// a query frequency at least as high. (The paper's ADD-ONLY sequences
// only add terms; a raised f_qt is the natural generalization — the
// term was "added again".) A DROP — a term removed or a frequency
// lowered — returns false: the snapshot must be invalidated because
// thresholds only tightened while the dropped term contributed.
func AddOnlyStep(prev, next Query) bool {
	cn := CanonicalQuery(next)
	have := make(map[postings.TermID]int, len(cn))
	for _, qt := range cn {
		have[qt.Term] = qt.Fqt
	}
	for _, qt := range CanonicalQuery(prev) {
		if have[qt.Term] < qt.Fqt {
			return false
		}
	}
	return true
}
