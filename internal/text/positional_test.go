package text

import (
	"reflect"
	"testing"

	"bufir/internal/postings"
)

func sample(t *testing.T) *PositionalIndex {
	t.Helper()
	texts := []string{
		"the stock market crashed today",       // doc 0
		"market conditions: stock prices rose", // doc 1
		"stock market stock market stock",      // doc 2
		"weather report: sunny skies",          // doc 3
		"the market for stock options",         // doc 4
	}
	ix, err := BuildPositional(texts, NewPipeline([]string{"the"}))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildPositions(t *testing.T) {
	ix := sample(t)
	// doc 0 after pipeline: stock(0) market(1) crash(2) todai(3)
	ps := ix.Postings("stock")
	if len(ps) != 4 {
		t.Fatalf("stock in %d docs, want 4", len(ps))
	}
	if ps[0].Doc != 0 || !reflect.DeepEqual(ps[0].Positions, []int32{0}) {
		t.Errorf("doc0 stock positions = %v", ps[0])
	}
	// doc 2: stock at 0, 2, 4.
	if !reflect.DeepEqual(ps[2].Positions, []int32{0, 2, 4}) {
		t.Errorf("doc2 stock positions = %v", ps[2].Positions)
	}
	// Docs are sorted.
	for i := 1; i < len(ps); i++ {
		if ps[i].Doc <= ps[i-1].Doc {
			t.Fatal("postings not doc-sorted")
		}
	}
	// Surface forms normalize: "stocks" -> "stock".
	if got := ix.Postings("stocks"); len(got) != 4 {
		t.Errorf("surface form lookup failed: %d docs", len(got))
	}
}

func TestPhrase(t *testing.T) {
	ix := sample(t)
	cases := []struct {
		phrase []string
		want   []postings.DocID
	}{
		{[]string{"stock", "market"}, []postings.DocID{0, 2}},
		{[]string{"market", "stock"}, []postings.DocID{2}}, // only doc 2 has market->stock adjacency
		{[]string{"stock", "market", "crashed"}, []postings.DocID{0}},
		{[]string{"sunny", "skies"}, []postings.DocID{3}},
		{[]string{"market", "crashed"}, []postings.DocID{0}}, // adjacent after stop-word removal
		{[]string{"stock"}, []postings.DocID{0, 1, 2, 4}},
		{[]string{"nonexistent", "term"}, nil},
	}
	for _, c := range cases {
		got, err := ix.Phrase(c.phrase)
		if err != nil {
			t.Fatalf("Phrase(%v): %v", c.phrase, err)
		}
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Phrase(%v) = %v, want %v", c.phrase, got, c.want)
		}
	}
	if _, err := ix.Phrase(nil); err == nil {
		t.Error("empty phrase should fail")
	}
}

func TestPhraseThroughPipeline(t *testing.T) {
	ix := sample(t)
	// Inflected surface forms match stems: "stocks markets" ~ "stock market".
	got, err := ix.Phrase([]string{"stocks", "markets"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []postings.DocID{0, 2}) {
		t.Errorf("inflected phrase = %v", got)
	}
	// A stop-word inside a phrase matches nothing (strict semantics).
	got, err = ix.Phrase([]string{"the", "market"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("stop-word phrase matched %v", got)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := BuildPositional(nil, nil); err == nil {
		t.Error("no documents should fail")
	}
}

func TestNumTerms(t *testing.T) {
	ix := sample(t)
	if ix.NumTerms() < 10 {
		t.Errorf("NumTerms = %d", ix.NumTerms())
	}
}
