package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalog checks that every workload emits exactly
// the metrics BENCHMARK.json names, with the same units, directions and
// bounds: a run reports the whole catalog of its mode (checkEmitted), so the
// catalog and the file must agree.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	f := readBenchFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q (%q), benchmark has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []benchMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: file names %d metrics, catalog %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: file has %s %s %s, catalog %s %s %s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s %s: bound in file does not match the catalog's %v", kind, g.Name, w.bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
}

func TestMetricNamesAndLimits(t *testing.T) {
	f := readBenchFile(t)
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	names := []string{}
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range append(append([]benchMetric{}, f.EndToEnd...), f.PerLayer...) {
		names = append(names, m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var setup *benchMetric
	for i, m := range f.EndToEnd {
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &f.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range f.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s: bound %v exceeds setup_s's %v; setup_s has the largest bound", m.Name, *m.Bound, *setup.Bound)
		}
	}
}

func TestCheckEmitted(t *testing.T) {
	for _, traced := range []bool{false, true} {
		full := map[string]float64{}
		for _, m := range catalog(traced) {
			full[m.name] = 1
		}
		if err := checkEmitted(full, traced); err != nil {
			t.Errorf("traced=%v: full catalog rejected: %v", traced, err)
		}
		missing := map[string]float64{}
		for k, v := range full {
			missing[k] = v
		}
		delete(missing, catalog(traced)[0].name)
		if checkEmitted(missing, traced) == nil {
			t.Errorf("traced=%v: a missing metric was accepted", traced)
		}
		full["not.in.catalog"] = 1
		if checkEmitted(full, traced) == nil {
			t.Errorf("traced=%v: an extra metric was accepted", traced)
		}
	}
}
