package livedex

import (
	"context"
	"reflect"
	"testing"

	"bufir/internal/postings"
	"bufir/internal/storage"
	"bufir/internal/textproc"
)

// FuzzDeltaAppend drives arbitrary UTF-8 documents through the full
// tokenize → delta-append → commit → merge path and asserts the
// structural exactness invariant end to end: whatever the bytes, the
// combined metadata and every overlay-served page are bit-identical to
// postings.Build over the merged corpus, and the commit survives
// ApplyMerge with the delta emptied.
//
// mainText seeds the frozen main generation (it may tokenize to
// nothing, in which case the main generation is skipped and the added
// documents build the index from scratch through the delta alone).
func FuzzDeltaAppend(f *testing.F) {
	f.Add("the quick brown fox", "jumps over the lazy dog", "fox fox fox")
	f.Add("alpha beta gamma alpha", "beta beta", "")
	f.Add("", "solo document with new terms only", "and another one")
	f.Add("päivää tämä on testi", "日本語のテキスト", "ascii again")
	f.Add("a b c d e f g h", "a a a a a a", "h g f e")
	f.Add("numbers 123 456 mixed7tokens", "punctuation, (everywhere)! yes?", "tabs\tand\nnewlines")
	f.Add("\x80\xff invalid utf8 bytes", "\xc3\x28 more invalid", "valid tail")

	pipe := textproc.NewPipeline(nil)

	f.Fuzz(func(t *testing.T, mainText, doc1, doc2 string) {
		const pageSize = 3
		mainCounts := pipe.CountTerms(mainText)
		added := []map[string]int{pipe.CountTerms(doc1), pipe.CountTerms(doc2)}

		// Tokenization must never emit something AddDoc rejects.
		for _, counts := range added {
			for term, freq := range counts {
				if term == "" || freq < 1 {
					t.Fatalf("pipeline emitted invalid pair %q:%d", term, freq)
				}
			}
		}

		mainDocs := []map[string]int{}
		if len(mainCounts) > 0 {
			mainDocs = append(mainDocs, mainCounts)
		}
		var s *State
		if len(mainDocs) > 0 {
			ix, pages := fuzzBuild(t, mainDocs, pageSize)
			var err error
			s, err = NewState(ix, storage.NewStore(pages), pages)
			if err != nil {
				t.Fatalf("NewState: %v", err)
			}
		} else {
			// No main corpus: start from an empty generation.
			ix := &postings.Index{PageSize: pageSize, Vocab: map[string]postings.TermID{}}
			if err := ix.RebuildPageMaps(); err != nil {
				t.Fatalf("empty index: %v", err)
			}
			var err error
			s, err = NewState(ix, storage.NewStore(nil), nil)
			if err != nil {
				t.Fatalf("NewState(empty): %v", err)
			}
		}

		for i, counts := range added {
			if _, err := s.AddDoc("doc", counts); err != nil {
				t.Fatalf("AddDoc %d: %v", i, err)
			}
		}
		if s.DeltaDocs() != len(added) {
			t.Fatalf("DeltaDocs=%d after %d adds", s.DeltaDocs(), len(added))
		}

		c, err := s.Commit()
		if err != nil {
			t.Fatalf("Commit: %v", err)
		}
		all := append(append([]map[string]int(nil), mainDocs...), added...)
		refIx, refPages := fuzzRef(t, mainDocs, added, all, pageSize)
		if !reflect.DeepEqual(c.Meta, refIx) {
			t.Fatal("combined metadata differs from rebuild")
		}
		ov := NewOverlay(c, sMainIx(s), sMainStore(s))
		for p := range refPages {
			got, err := ov.ReadContext(context.Background(), postings.PageID(p))
			if err != nil {
				t.Fatalf("overlay read %d: %v", p, err)
			}
			if !reflect.DeepEqual(got, refPages[p]) {
				t.Fatalf("overlay page %d differs from rebuild", p)
			}
		}

		// The commit must survive compaction into a new generation.
		if err := s.ApplyMerge(c, storage.NewStore(Pages(c))); err != nil {
			t.Fatalf("ApplyMerge: %v", err)
		}
		if s.DeltaDocs() != 0 || s.DeltaEntries() != 0 {
			t.Fatal("merge left a non-empty delta")
		}
	})
}

// fuzzBuild builds a reference index over docs with lexicographic term
// order (the convention of the unit tests' main generations).
func fuzzBuild(t *testing.T, docs []map[string]int, pageSize int) (*postings.Index, [][]postings.Entry) {
	t.Helper()
	ix, pages := buildRef(t, docs, mainOrder(docs), pageSize)
	return ix, pages
}

// fuzzRef rebuilds the full corpus in the live vocabulary order.
func fuzzRef(t *testing.T, mainDocs, added, all []map[string]int, pageSize int) (*postings.Index, [][]postings.Entry) {
	t.Helper()
	return buildRef(t, all, liveTermOrder(mainOrder(mainDocs), added), pageSize)
}
