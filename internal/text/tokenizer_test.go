package text

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Hello, World!", []string{"hello", "world"}},
		{"WSJ 1987-1992 articles", []string{"wsj", "articles"}},
		{"drastic price increases in American stockmarkets", []string{"drastic", "price", "increases", "in", "american", "stockmarkets"}},
		{"a1b2c3", []string{"a", "b", "c"}},
		{"   \t\n  ", nil},
		{"...!!!", nil},
		{"Don't-stop", []string{"don", "t", "stop"}},
		{"ÜBER-maß", []string{"über", "maß"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTokenizeProperties: tokens are non-empty, lower-case, and
// letters only, for arbitrary input.
func TestTokenizeProperties(t *testing.T) {
	prop := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) {
					return false
				}
				// Case folding is only guaranteed where a lowercase
				// mapping exists (some Unicode letters, e.g.
				// mathematical capitals, have none).
				if r < 128 && unicode.IsUpper(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPipelineStopwordsAndStemming(t *testing.T) {
	p := NewPipeline([]string{"the", "of", "in"})
	got := p.Terms("The computing of computers in the market")
	want := []string{"comput", "comput", "market"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestPipelineCountTerms(t *testing.T) {
	p := NewPipeline(nil)
	counts := p.CountTerms("market markets marketing; banking banks")
	if counts["market"] != 3 {
		t.Errorf("market count = %d, want 3 (market/markets/marketing conflate)", counts["market"])
	}
	if counts["bank"] != 2 {
		t.Errorf("bank count = %d, want 2", counts["bank"])
	}
}

func TestPipelineDropsShortTokens(t *testing.T) {
	p := NewPipeline(nil)
	got := p.Terms("a b xy market")
	for _, term := range got {
		if term == "a" || term == "b" {
			t.Errorf("single-letter token %q survived the pipeline", term)
		}
	}
	if len(got) != 2 { // "xy" and "market"
		t.Errorf("Terms = %v, want 2 terms", got)
	}
}

func TestTopFrequentTerms(t *testing.T) {
	df := map[string]int{"the": 100, "of": 90, "market": 10, "bank": 10, "rare": 1}
	got := TopFrequentTerms(df, 2)
	if !reflect.DeepEqual(got, []string{"the", "of"}) {
		t.Errorf("TopFrequentTerms = %v", got)
	}
	// Ties break lexicographically for determinism.
	got = TopFrequentTerms(df, 4)
	if !reflect.DeepEqual(got, []string{"the", "of", "bank", "market"}) {
		t.Errorf("TopFrequentTerms with tie = %v", got)
	}
	// n larger than the vocabulary clamps.
	if got := TopFrequentTerms(df, 99); len(got) != 5 {
		t.Errorf("clamped length = %d, want 5", len(got))
	}
	if got := TopFrequentTerms(nil, 3); len(got) != 0 {
		t.Errorf("empty df should yield no stop-words, got %v", got)
	}
}

// TestPipelineDocQuerySymmetry: a query processed by the same pipeline
// as a document must produce terms that match the document's — the
// core invariant that makes stemmed retrieval work.
func TestPipelineDocQuerySymmetry(t *testing.T) {
	p := NewPipeline([]string{"the"})
	doc := "The investors were investing in investments"
	query := "invest"
	docTerms := map[string]bool{}
	for _, tm := range p.Terms(doc) {
		docTerms[tm] = true
	}
	for _, tm := range p.Terms(query) {
		if !docTerms[tm] {
			t.Errorf("query term %q does not match any document term %v", tm, docTerms)
		}
	}
}

func TestTokenizeLongInput(t *testing.T) {
	// A large input exercises the builder reuse paths.
	in := strings.Repeat("alpha beta42gamma ", 10_000)
	got := Tokenize(in)
	if len(got) != 30_000 {
		t.Fatalf("token count = %d, want 30000", len(got))
	}
}

func TestPipelineDisableStemming(t *testing.T) {
	p := NewPipeline(nil)
	p.DisableStemming()
	got := p.Terms("computers computing markets")
	want := []string{"computers", "computing", "markets"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want raw tokens %v", got, want)
	}
}
