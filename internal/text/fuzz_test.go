package text

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize checks Tokenize's invariants on arbitrary input: every
// token is a non-empty run of letters already in canonical (per-rune
// lower-case) form, tokenization is stable under re-joining, and the
// downstream pipeline (stop-word removal + Porter stemming) never
// panics on its output. Seed corpus: testdata/fuzz/FuzzTokenize.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"",
		"Hello, World!",
		"the quick brown fox 123 jumped",
		"ΑΣ ΣΟΦΌΣ — naïve café №42",
		"running runner runs ran",
		"\x00\xff\xfe invalid \xf0\x28\x8c\x28 utf8",
		"a b c d2e f-g h_i",
	} {
		f.Add(s)
	}
	pipe := NewPipeline([]string{"the", "and"})
	f.Fuzz(func(t *testing.T, text string) {
		tokens := Tokenize(text)
		for _, tok := range tokens {
			if tok == "" {
				t.Fatal("empty token")
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) {
					t.Fatalf("token %q contains non-letter %q", tok, r)
				}
			}
			if mapped := strings.Map(unicode.ToLower, tok); mapped != tok {
				t.Fatalf("token %q not in canonical lower-case form (want %q)", tok, mapped)
			}
		}
		// Tokens contain only letters, so re-tokenizing the joined
		// tokens must reproduce the list exactly.
		again := Tokenize(strings.Join(tokens, " "))
		if len(again) != len(tokens) {
			t.Fatalf("re-tokenize produced %d tokens, want %d", len(again), len(tokens))
		}
		for i := range tokens {
			if again[i] != tokens[i] {
				t.Fatalf("re-tokenize[%d] = %q, want %q", i, again[i], tokens[i])
			}
		}
		// The full pipeline (stop-words + stemmer) must handle anything
		// Tokenize produces.
		for _, term := range pipe.Terms(text) {
			if term == "" {
				t.Fatal("pipeline produced empty term")
			}
		}
	})
}
