package main

import (
	"reflect"
	"sort"
	"testing"

	"bufir"
)

// tinyCorpus is the unit-test-scale collection.
func tinyCorpus() bufir.CollectionConfig { return bufir.TinyCollectionConfig(corpusSeed) }

// tinyWorkload scales a workload's pool to the tiny collection.
func tinyWorkload(t *testing.T, name string) workloadSpec {
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.bufferPages /= 16
	return w
}

func tinyFixture(t *testing.T) *fixture {
	fx, err := buildFixture(tinyCorpus(), t.TempDir(), spanSet{})
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func TestStreamIsDeterministicInTheSeed(t *testing.T) {
	fx := tinyFixture(t)
	seqs, err := buildSequences(fx)
	if err != nil {
		t.Fatal(err)
	}
	again, err := buildSequences(tinyFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqs, again) {
		t.Fatal("two builds of the same collection gave different sequences")
	}
	a, b, c := buildStream(seqs, 7), buildStream(seqs, 7), buildStream(seqs, 8)
	if !reflect.DeepEqual(a.passOrder(), b.passOrder()) {
		t.Error("the same seed gave two different pass orders")
	}
	if reflect.DeepEqual(a.passOrder(), c.passOrder()) {
		t.Error("two seeds gave the same pass order")
	}
	// Whatever the seed, a pass holds the same queries.
	ids := func(st *stream) []int {
		var out []int
		for _, s := range st.passOrder() {
			out = append(out, s.id)
		}
		sort.Ints(out)
		return out
	}
	if !reflect.DeepEqual(ids(a), ids(c)) {
		t.Error("two seeds gave passes with different queries")
	}
	if len(ids(a)) != a.steps {
		t.Errorf("pass has %d steps, stream says %d", len(ids(a)), a.steps)
	}
	// A user's steps stay in order.
	next := map[int]int{}
	for _, s := range a.passOrder() {
		if s.idx != next[s.user] {
			t.Fatalf("user %d: step %d issued when %d was due", s.user, s.idx, next[s.user])
		}
		next[s.user]++
	}
}

func TestIngestSourceIsDeterministicInTheSeed(t *testing.T) {
	fx := tinyFixture(t)
	a, b, c := newIngestSource(fx, 7), newIngestSource(fx, 7), newIngestSource(fx, 8)
	same := true
	for i := 0; i < 5; i++ {
		da, db, dc := a.next(), b.next(), c.next()
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("document %d differs between two sources of one seed", i)
		}
		same = same && reflect.DeepEqual(da.counts, dc.counts)
		tokens := 0
		for term, f := range da.counts {
			if _, ok := fx.ix.LookupTerm(term); !ok {
				t.Fatalf("token %q is not in the vocabulary", term)
			}
			tokens += f
		}
		if tokens != ingestTokens {
			t.Fatalf("document %d has %d tokens, want %d", i, tokens, ingestTokens)
		}
	}
	if same {
		t.Error("two seeds drew the same documents")
	}
}
