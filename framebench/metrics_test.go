package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestBenchmarkJSONNamesTheMeasuredMetrics keeps BENCHMARK.json and the
// metrics this command prints in step.
func TestBenchmarkJSONNamesTheMeasuredMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		what       string
		json, code []string
	}{
		{"workloads", names(spec.Workloads), workloads},
		{"end_to_end", names(spec.EndToEnd), endToEnd},
		{"per_layer", names(spec.PerLayer), perLayer},
	} {
		if !slices.Equal(c.json, c.code) {
			t.Errorf("%s: BENCHMARK.json %v, command %v", c.what, c.json, c.code)
		}
	}
}

// TestCompareWarnsOnFingerprintMismatch compares two results from
// different hosts: the comparison must say so.
func TestCompareWarnsOnFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string, v float64) string {
		r := result{Workload: "attack-forge", Seed: 1,
			Metrics:     map[string]metricVal{"frames_per_s": {Value: v, Unit: "1/s"}},
			Fingerprint: fingerprint{CPUModel: cpu, NProc: 2, GOMAXPROCSBench: 2, GOMAXPROCSDaemon: 2, GoVersion: "go1.24.0"}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, other := write("a.json", "cpu A", 10), write("b.json", "cpu A", 12), write("c.json", "cpu B", 12)
	var out strings.Builder
	if err := compare(&out, []string{a, same}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "WARNING") || !strings.Contains(out.String(), "+20.00%") {
		t.Errorf("same host:\n%s", out.String())
	}
	out.Reset()
	if err := compare(&out, []string{a, other}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARNING: fingerprints differ, cpu_model: cpu A vs cpu B") {
		t.Errorf("different hosts, no warning:\n%s", out.String())
	}
}
