package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

// The serving goldens pin the deterministic columns of the multi-user
// experiments at TinyConfig(42): E12's three read series, the E21 and
// E22 verification rows (serial interleave vs 1-worker engine reads).
// Timing columns and
// multi-worker read counts vary run to run and are left out.
// Regenerate with
//
//	go test ./internal/experiments -run TestServingGoldens -update
//
// only when a serving path's evaluation or buffer behaviour is changed
// on purpose.
var update = flag.Bool("update", false, "rewrite the testdata/golden_*.json files of the tests run")

const goldenServingFile = "testdata/golden_serving.json"

type goldenServing struct {
	E12Sizes  []int            `json:"e12_sizes"`
	E12Series map[string][]int `json:"e12_series"`
	E21Verify []VerifyPoint    `json:"e21_verify"`
	E22Verify []VerifyPoint    `json:"e22_verify"`
}

func TestServingGoldens(t *testing.T) {
	env := newTinyEnv(t)
	var got goldenServing

	mu, err := env.RunMultiUser(5)
	if err != nil {
		t.Fatalf("multiuser: %v", err)
	}
	got.E12Sizes, got.E12Series = mu.Sizes, mu.Series

	conc, err := env.RunConcurrency(4, 2, []int{1}, 0, 5)
	if err != nil {
		t.Fatalf("concurrency: %v", err)
	}
	got.E21Verify = conc.Verify

	ob, err := env.RunObs("127.0.0.1:0", 4, 2, 2, 0, 5, 0)
	if err != nil {
		t.Fatalf("obs: %v", err)
	}
	got.E22Verify = ob.Verify

	checkGolden(t, goldenServingFile, got)
}

const goldenFootnotesFile = "testdata/golden_footnotes.json"

// goldenFootnotes pins the footnote experiments at TinyConfig(42): E14's
// read series, E17's sweep, read series and mean accumulator counts,
// and E19's per-topic rows and means. Regenerate with
//
//	go test ./internal/experiments -run TestFootnoteGoldens -update
//
// only when an evaluation, a buffer policy or a refinement sequence is
// changed on purpose.
type goldenFootnotes struct {
	E14Series    map[string][]int   `json:"e14_series"`
	E17Sizes     []int              `json:"e17_sizes"`
	E17Series    map[string][]int   `json:"e17_series"`
	E17AvgAccums map[string]float64 `json:"e17_avg_accums"`
	E19          *BooleanResult     `json:"e19"`
}

func TestFootnoteGoldens(t *testing.T) {
	env := newTinyEnv(t)
	var got goldenFootnotes

	bl, err := env.RunBaselines(10)
	if err != nil {
		t.Fatalf("baselines: %v", err)
	}
	got.E14Series = bl.Series

	ds, err := env.RunDocSorted(10)
	if err != nil {
		t.Fatalf("docsorted: %v", err)
	}
	got.E17Sizes, got.E17Series, got.E17AvgAccums = ds.Sizes, ds.Series, ds.AvgAccums

	if got.E19, err = env.RunBoolean(0); err != nil {
		t.Fatalf("boolean: %v", err)
	}
	checkGolden(t, goldenFootnotesFile, got)
}

// checkGolden compares v, as indented JSON, with the golden file, or
// rewrites the file under -update.
func checkGolden(t *testing.T, file string, v any) {
	t.Helper()
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("experiments differ from %s (run with -update after intentional changes):\ngot:\n%s\nwant:\n%s",
			file, raw, want)
	}
}
