package corpus

import (
	"math"
	"testing"

	"bufir/internal/postings"
	"bufir/internal/text"
)

func TestAlphaName(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 30_000; i += 97 {
		n := AlphaName(i)
		if len(n) != 6 {
			t.Fatalf("AlphaName(%d) = %q", i, n)
		}
		for _, c := range n {
			if c < 'a' || c > 'z' {
				t.Fatalf("AlphaName(%d) = %q has non-letter", i, n)
			}
		}
		if seen[n] {
			t.Fatalf("AlphaName collision at %d", i)
		}
		seen[n] = true
	}
	if AlphaName(0) == AlphaName(1) {
		t.Fatal("adjacent indices collide")
	}
}

// TestEmitDocumentsRoundTrip is the substitution validation promised
// in DESIGN.md §2: building the index from emitted document text via
// the full lexical path must reproduce the directly synthesized index
// exactly — same document frequencies, maximum frequencies, page
// counts and vector lengths for every term and document.
func TestEmitDocumentsRoundTrip(t *testing.T) {
	cfg := TinyConfig(5)
	cfg.NumDocs = 800
	cfg.VocabSize = 500
	// Bands sized so the five engineered topics (which reserve up to
	// 22 low / 63 medium / 57 high / 61 very-high terms) fit.
	cfg.Bands = []Band{
		{Name: "low-idf", Terms: 24, MinDF: 150, MaxDF: 350, FreqAlpha: 2.0, FreqCap: 30},
		{Name: "medium-idf", Terms: 70, MinDF: 40, MaxDF: 140, FreqAlpha: 2.1, FreqCap: 20},
		{Name: "high-idf", Terms: 90, MinDF: 10, MaxDF: 35, FreqAlpha: 2.3, FreqCap: 10},
		{Name: "very-high-idf", Terms: 0, MinDF: 1, MaxDF: 9, FreqContinue: 0.12, FreqCap: 3},
	}
	cfg.NumTopics = 6
	cfg.RelevantMin, cfg.RelevantMax = 10, 25
	col, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Direct path, with terms renamed to their alphabetic identifiers
	// so both indexes share a vocabulary.
	renamed := make([]postings.TermPostings, len(col.Lists))
	for i, l := range col.Lists {
		renamed[i] = postings.TermPostings{Name: AlphaName(i), Entries: l.Entries}
	}
	direct, _, err := postings.Build(renamed, col.NumDocs, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}

	// Text path: emit documents, run the full pipeline (tokenizer on;
	// stop-words and stemming off so identifiers survive verbatim).
	texts := EmitDocuments(col, 99)
	docs := make([]text.Document, len(texts))
	for i, txt := range texts {
		docs[i] = text.Document{Name: "d", Text: txt}
	}
	res, err := text.Build(docs, text.Options{
		PageSize:        cfg.PageSize,
		NumStopWords:    -1,
		DisableStemming: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	viaText := res.Index

	if len(viaText.Terms) != len(direct.Terms) {
		t.Fatalf("vocabulary %d via text, %d direct", len(viaText.Terms), len(direct.Terms))
	}
	for ti := range direct.Terms {
		d := &direct.Terms[ti]
		id, ok := viaText.LookupTerm(d.Name)
		if !ok {
			t.Fatalf("term %q missing from text index", d.Name)
		}
		x := &viaText.Terms[id]
		if d.DF != x.DF || d.FMax != x.FMax || d.NumPages != x.NumPages {
			t.Fatalf("term %q: direct {df %d fmax %d pages %d} vs text {df %d fmax %d pages %d}",
				d.Name, d.DF, d.FMax, d.NumPages, x.DF, x.FMax, x.NumPages)
		}
		if math.Abs(d.IDF-x.IDF) > 1e-12 {
			t.Fatalf("term %q idf differs", d.Name)
		}
	}
	for doc := range direct.DocLen {
		if math.Abs(direct.DocLen[doc]-viaText.DocLen[doc]) > 1e-9 {
			t.Fatalf("W_%d: %g direct vs %g text", doc, direct.DocLen[doc], viaText.DocLen[doc])
		}
	}
}

func TestEmitDocumentsDeterministic(t *testing.T) {
	cfg := TinyConfig(5)
	cfg.NumDocs, cfg.VocabSize, cfg.NumTopics = 200, 300, 5
	cfg.Bands = []Band{
		{Name: "low-idf", Terms: 24, MinDF: 40, MaxDF: 80},
		{Name: "medium-idf", Terms: 65, MinDF: 15, MaxDF: 39},
		{Name: "high-idf", Terms: 60, MinDF: 5, MaxDF: 14},
		{Name: "very-high-idf", Terms: 0, MinDF: 1, MaxDF: 4},
	}
	cfg.RelevantMin, cfg.RelevantMax = 5, 15
	col, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := EmitDocuments(col, 1)
	b := EmitDocuments(col, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("EmitDocuments not deterministic")
		}
	}
	c := EmitDocuments(col, 2)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical shuffles (suspicious)")
	}
}
