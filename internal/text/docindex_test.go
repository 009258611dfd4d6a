package text

import (
	"strings"
	"testing"

	"bufir/internal/corpus"
	"bufir/internal/postings"
)

func sampleDocs() []Document {
	return []Document{
		{Name: "d0", Text: "The stock market rallied. Markets everywhere! The the the."},
		{Name: "d1", Text: "Investors were investing in investment funds; the market noticed."},
		{Name: "d2", Text: "Drastic price increases in American stockmarkets."},
		{Name: "d3", Text: "The price of the stock."},
	}
}

func TestBuildBasics(t *testing.T) {
	res, err := Build(sampleDocs(), Options{PageSize: 4, NumStopWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Index.NumDocs != 4 {
		t.Fatalf("NumDocs = %d", res.Index.NumDocs)
	}
	// "the" is the most frequent raw term and becomes the stop-word.
	if len(res.StopWords) != 1 || res.StopWords[0] != "the" {
		t.Fatalf("stop-words = %v", res.StopWords)
	}
	if _, ok := res.Index.LookupTerm("the"); ok {
		t.Error("stop-word was indexed")
	}
	// "market", "markets" conflate under stemming.
	id, ok := res.Index.LookupTerm("market")
	if !ok {
		t.Fatal("market not indexed")
	}
	tm := res.Index.Terms[id]
	if tm.DF != 2 { // d0 (market, markets) and d1 (market)
		t.Errorf("market df = %d, want 2", tm.DF)
	}
	// d0 has market x2 (market + markets).
	found := false
	for i := 0; i < tm.NumPages; i++ {
		for _, e := range res.Pages[res.Index.PageOf(id, i)] {
			if e.Doc == 0 && e.Freq == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Error("d0 should have market frequency 2")
	}
	if res.DocNames[2] != "d2" {
		t.Errorf("DocNames[2] = %q", res.DocNames[2])
	}
}

func TestBuildQueryDocSymmetry(t *testing.T) {
	res, err := Build(sampleDocs(), Options{PageSize: 8, NumStopWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A query for "investments" must resolve to the same stem the
	// documents were indexed under.
	terms := res.Pipeline.Terms("investments")
	if len(terms) != 1 {
		t.Fatalf("query terms = %v", terms)
	}
	if _, ok := res.Index.LookupTerm(terms[0]); !ok {
		t.Errorf("query stem %q not in index", terms[0])
	}
}

func TestBuildDefaultsAndErrors(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("no documents should fail")
	}
	res, err := Build(sampleDocs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Index.PageSize != postings.DefaultPageSize {
		t.Errorf("default page size = %d", res.Index.PageSize)
	}
	// Default stop-word count is 100, clamped to vocabulary size; the
	// tiny sample has fewer distinct raw terms than 100, so everything
	// frequent is eaten — the index must still build.
	if res.Index.NumDocs != 4 {
		t.Error("index broken with default options")
	}
	// Negative disables stop-words entirely.
	res2, err := Build(sampleDocs(), Options{NumStopWords: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.StopWords) != 0 {
		t.Errorf("stop-words = %v, want none", res2.StopWords)
	}
	if _, ok := res2.Index.LookupTerm("the"); !ok {
		t.Error("with stop-words disabled, 'the' should be indexed")
	}
}

func TestBuildDeterministicTermIDs(t *testing.T) {
	a, err := Build(sampleDocs(), Options{PageSize: 4, NumStopWords: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(sampleDocs(), Options{PageSize: 4, NumStopWords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Index.Terms) != len(b.Index.Terms) {
		t.Fatal("vocabulary size differs")
	}
	for i := range a.Index.Terms {
		if a.Index.Terms[i].Name != b.Index.Terms[i].Name {
			t.Fatalf("term %d differs: %q vs %q", i, a.Index.Terms[i].Name, b.Index.Terms[i].Name)
		}
	}
}

func TestBuildSyntheticCorpusAtScale(t *testing.T) {
	texts := corpus.SynthesizeText(11, 300, 800, 40, 120)
	docs := make([]Document, len(texts))
	for i, txt := range texts {
		docs[i] = Document{Name: "doc", Text: txt}
	}
	res, err := Build(docs, Options{PageSize: 16, NumStopWords: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Index.Terms) < 100 {
		t.Errorf("vocabulary suspiciously small: %d", len(res.Index.Terms))
	}
	// Inflected forms must conflate: the synthesizer appends "-ing",
	// "-ed", "-s" to stems, so the stemmed vocabulary should be much
	// smaller than the raw token vocabulary.
	raw := map[string]bool{}
	for _, d := range docs {
		for _, tok := range strings.Fields(d.Text) {
			raw[tok] = true
		}
	}
	if len(res.Index.Terms) >= len(raw) {
		t.Errorf("stemming did not shrink vocabulary: %d terms vs %d raw", len(res.Index.Terms), len(raw))
	}
	// Every document with indexed content contributes to W_d.
	nonZero := 0
	for _, w := range res.Index.DocLen {
		if w > 0 {
			nonZero++
		}
	}
	if nonZero < len(docs)*9/10 {
		t.Errorf("only %d/%d docs have nonzero vector length", nonZero, len(docs))
	}
}
