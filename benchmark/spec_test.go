package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json at the root of the repository declares exactly the
// workloads and metrics this package runs and prints.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, runs %q: %q", i, bf.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\ndeclared %+v\nprinted  %+v", bf.EndToEnd, endToEnd)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bf.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d: declared %+v, printed %+v", i, got, m)
		}
	}
}

// The tables stay inside the limits a benchmark file must keep.
func TestTablesKeepTheLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
	}
}
