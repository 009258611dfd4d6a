package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// An unknown -exp name fails before the environment is built (nothing
// is printed, not even the banner) and the error lists the valid names.
func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scale", "tiny", "-exp", "table4,tabel4"}, &out)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, want := range []string{`"tabel4"`, "table4", "ingest", "fig56"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("printed before failing:\n%s", out.String())
	}
}

// -benchjson holds one experiment's result, so -exp must name exactly
// one: a list, an alias of two or "all" fail before anything runs and
// leave no file behind.
func TestBenchJSONNeedsOneExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	for _, exps := range []string{"drift,ranksafe", "fig56", "all"} {
		var out bytes.Buffer
		err := run([]string{"-scale", "tiny", "-exp", exps, "-points", "2", "-benchjson", path}, &out)
		if err == nil || !strings.Contains(err.Error(), "exactly one") {
			t.Errorf("-exp %s: err = %v, want the one-experiment error", exps, err)
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s: printed before failing:\n%s", exps, out.String())
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("-exp %s: %s was written", exps, path)
		}
	}
}

// The bench JSON that make bench-policy and make bench-ranksafe commit
// carries each sweep's acceptance verdicts, in the indented form of
// the one writer.
func TestBenchJSONVerdicts(t *testing.T) {
	for exp, verdict := range map[string]string{
		"drift":    "AdaptiveWithin10Refine",
		"ranksafe": "SafeExactEverywhere",
	} {
		path := filepath.Join(t.TempDir(), exp+".json")
		var out bytes.Buffer
		if err := run([]string{"-scale", "tiny", "-exp", exp, "-points", "2", "-benchjson", path}, &out); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(out.String(), "[json written to "+path+"]") {
			t.Errorf("%s: output does not announce the JSON file", exp)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(b, &fields); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if _, ok := fields[verdict]; !ok {
			t.Errorf("%s: bench JSON missing the acceptance verdict %s", exp, verdict)
		}
		if !bytes.HasPrefix(b, []byte("{\n  \"")) {
			t.Errorf("%s: bench JSON is not two-space indented:\n%.60s", exp, b)
		}
	}
}
