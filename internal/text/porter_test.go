package text

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestStemKnownVectors checks the stemmer against a vector set drawn
// from Porter's published examples and the algorithm definition.
func TestStemKnownVectors(t *testing.T) {
	vectors := map[string]string{
		// Step 1a
		"caresses": "caress",
		"ponies":   "poni",
		"ties":     "ti",
		"caress":   "caress",
		"cats":     "cat",
		// Step 1b
		"feed":      "feed",
		"agreed":    "agre",
		"plastered": "plaster",
		"bled":      "bled",
		"motoring":  "motor",
		"sing":      "sing",
		// Step 1b cleanup
		"conflated": "conflat",
		"troubled":  "troubl",
		"sized":     "size",
		"hopping":   "hop",
		"tanned":    "tan",
		"falling":   "fall",
		"hissing":   "hiss",
		"fizzed":    "fizz",
		"failing":   "fail",
		"filing":    "file",
		// Step 1c
		"happy": "happi",
		"sky":   "sky",
		// Step 2
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		// Step 3
		"triplicate":  "triplic",
		"formative":   "form",
		"formalize":   "formal",
		"electriciti": "electr",
		"electrical":  "electr",
		"hopeful":     "hope",
		"goodness":    "good",
		// Step 4
		"revival":     "reviv",
		"allowance":   "allow",
		"inference":   "infer",
		"airliner":    "airlin",
		"gyroscopic":  "gyroscop",
		"adjustable":  "adjust",
		"defensible":  "defens",
		"irritant":    "irrit",
		"replacement": "replac",
		"adjustment":  "adjust",
		"dependent":   "depend",
		"adoption":    "adopt",
		"homologou":   "homolog",
		"communism":   "commun",
		"activate":    "activ",
		"angulariti":  "angular",
		"homologous":  "homolog",
		"effective":   "effect",
		"bowdlerize":  "bowdler",
		// Step 5
		"probate":  "probat",
		"rate":     "rate",
		"cease":    "ceas",
		"controll": "control",
		"roll":     "roll",
		// Classic pairs the paper's §4.2 mentions
		"computer":  "comput",
		"computing": "comput",
		// Multi-step words
		"generalizations": "gener",
		"oscillators":     "oscil",
	}
	for in, want := range vectors {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestStemConflatesRelatedForms: inflected variants of one stem must
// conflate, which is the property the index relies on.
func TestStemConflatesRelatedForms(t *testing.T) {
	groups := [][]string{
		{"connect", "connected", "connecting", "connection", "connections"},
		{"relate", "related", "relating"},
		{"argue", "argued", "arguing"},
	}
	for _, g := range groups {
		base := Stem(g[0])
		for _, w := range g[1:] {
			if got := Stem(w); got != base {
				t.Errorf("Stem(%q) = %q, want %q (conflated with %q)", w, got, base, g[0])
			}
		}
	}
}

func TestStemShortWordsUnchanged(t *testing.T) {
	for _, w := range []string{"", "a", "is", "be", "at"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

// TestStemStableOnSample: stemming an already-stemmed word is stable
// for most words. (The Porter stemmer is famously not idempotent —
// e.g. "increase" -> "increas" -> "increa" because step 1a strips a
// lone trailing "s" — which is why the pipeline stems raw tokens
// exactly once for both documents and queries.)
func TestStemStableOnSample(t *testing.T) {
	words := []string{
		"market", "price", "invest", "stock", "bank",
		"drastic", "american", "health", "hazard", "fiber",
		"satellite", "launch", "contract", "comput", "system",
	}
	for _, w := range words {
		once := Stem(w)
		twice := Stem(once)
		if once != twice {
			t.Errorf("Stem not stable on %q: %q -> %q", w, once, twice)
		}
	}
}

// TestStemNotIdempotent documents the known non-idempotence of the
// Porter algorithm, so nobody "fixes" the pipeline into double
// stemming.
func TestStemNotIdempotent(t *testing.T) {
	if Stem("increase") != "increas" {
		t.Fatalf("Stem(increase) = %q", Stem("increase"))
	}
	if Stem(Stem("increase")) == Stem("increase") {
		t.Fatal("expected Porter to be non-idempotent on 'increase'; pipeline assumptions changed")
	}
}

// TestStemProperties uses testing/quick over random lowercase words.
func TestStemProperties(t *testing.T) {
	prop := func(raw []byte) bool {
		// Build a plausible lowercase word from arbitrary bytes.
		var b strings.Builder
		for _, c := range raw {
			b.WriteByte('a' + c%26)
		}
		w := b.String()
		if len(w) > 40 {
			w = w[:40]
		}
		got := Stem(w)
		// 1. Never longer than the input.
		if len(got) > len(w) {
			return false
		}
		// 2. Result is a prefix-preserving transform: first letter
		// unchanged for words of length >= 3.
		if len(w) >= 3 && (len(got) == 0 || got[0] != w[0]) {
			return false
		}
		// 3. Never panics and never empties a word.
		return len(w) < 3 || len(got) > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMeasure(t *testing.T) {
	// m counts VC sequences in [C](VC)^m[V].
	cases := map[string]int{
		"tr":       0,
		"ee":       0,
		"tree":     0,
		"y":        0,
		"by":       0,
		"trouble":  1,
		"oats":     1,
		"trees":    1,
		"ivy":      1,
		"troubles": 2,
		"private":  2,
		"oaten":    2,
	}
	for w, want := range cases {
		s := &porterState{b: []byte(w)}
		if got := s.measure(len(w)); got != want {
			t.Errorf("measure(%q) = %d, want %d", w, got, want)
		}
	}
}

func TestEndsCVC(t *testing.T) {
	cases := map[string]bool{
		"hop":  true,
		"fil":  true, // from "filing"
		"hope": false,
		"snow": false, // ends w
		"box":  false, // ends x
		"tray": false, // ends y
		"ho":   false,
	}
	for w, want := range cases {
		s := &porterState{b: []byte(w)}
		if got := s.endsCVC(len(w)); got != want {
			t.Errorf("endsCVC(%q) = %v, want %v", w, got, want)
		}
	}
}
