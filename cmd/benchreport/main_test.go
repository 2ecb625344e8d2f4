package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, s, ok := parseBenchLine("BenchmarkDecodeAt-4   \t    9253\t    119748 ns/op\t      87 B/op\t       0 allocs/op")
	if !ok || name != "DecodeAt" || s != (sample{ns: 119748, allocs: 0}) {
		t.Errorf("parsed %q %+v ok=%v", name, s, ok)
	}

	// Custom ReportMetric units are skipped.
	name, s, ok = parseBenchLine("BenchmarkStreamScan-2 10 5000000 ns/op 1234 scan-p50-ns 5678 scan-p95-ns 131917 B/op 41 allocs/op")
	if !ok || name != "StreamScan" || s != (sample{ns: 5000000, allocs: 41}) {
		t.Errorf("parsed %q %+v ok=%v", name, s, ok)
	}

	// GOMAXPROCS=1 benchmarks have no -N suffix; sub-benchmarks keep
	// their path.
	if name, _, ok = parseBenchLine("BenchmarkFFT64 1000 850 ns/op"); !ok || name != "FFT64" {
		t.Errorf("no-suffix parse: ok=%v %q", ok, name)
	}
	if name, _, ok = parseBenchLine("BenchmarkX/sessions=256-2 1 9 ns/op"); !ok || name != "X/sessions=256" {
		t.Errorf("sub-benchmark parse: ok=%v %q", ok, name)
	}

	for _, line := range []string{
		"BenchmarkSynchronize",
		"ok  \thideseek/internal/dsp\t1.2s",
		"BenchmarkX-2 10 fast ns/op",
		"BenchmarkX-2 10 0 B/op 0 allocs/op", // no ns/op
	} {
		if _, _, ok := parseBenchLine(line); ok {
			t.Errorf("%q parsed as a result", line)
		}
	}
}

func TestParseBenchOutput(t *testing.T) {
	out := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: hideseek/internal/zigbee",
		"cpu: Intel(R) Xeon(R)",
		"BenchmarkDecodeAt-2   \t     438\t    259403 ns/op\t      87 B/op\t       0 allocs/op",
		"PASS",
		"ok  \thideseek/internal/zigbee\t0.35s",
		"pkg: hideseek/internal/stream",
		"BenchmarkStreamScan-2 \t      52\t   2311230 ns/op\t   141669 scan-p50-ns\t 131917 B/op\t      41 allocs/op",
		"PASS",
	}, "\n")
	got := parseBenchOutput(out)
	want := map[string]sample{
		"hideseek/internal/zigbee.DecodeAt":   {ns: 259403, allocs: 0},
		"hideseek/internal/stream.StreamScan": {ns: 2311230, allocs: 41},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %+v, want %+v", k, got[k], v)
		}
	}
}

func TestKeepFastest(t *testing.T) {
	best := map[string]sample{}
	keepFastest(best, map[string]sample{"p.X": {ns: 300, allocs: 41}})
	keepFastest(best, map[string]sample{"p.X": {ns: 100, allocs: 42}, "p.Y": {ns: 7}})
	keepFastest(best, map[string]sample{"p.X": {ns: 200, allocs: 40}})
	if best["p.X"] != (sample{ns: 100, allocs: 40}) || best["p.Y"] != (sample{ns: 7}) {
		t.Fatalf("kept %+v", best)
	}
}

func TestGate(t *testing.T) {
	old := map[string]sample{"p.A": {ns: 1000, allocs: 0}, "p.B": {ns: 2000, allocs: 40}}
	for _, tc := range []struct {
		name  string
		fresh map[string]sample
		fail  string // "" means the gate passes
	}{
		{"equal", map[string]sample{"p.A": {ns: 1000}, "p.B": {ns: 2000, allocs: 40}}, ""},
		{"at bound", map[string]sample{"p.A": {ns: 1250}, "p.B": {ns: 1000, allocs: 39}}, ""},
		{"slower", map[string]sample{"p.A": {ns: 1251}, "p.B": {ns: 2000, allocs: 40}}, "p.A: ns/op"},
		{"allocs", map[string]sample{"p.A": {ns: 1000, allocs: 1}, "p.B": {ns: 2000, allocs: 40}}, "p.A: allocs/op 0 -> 1"},
		{"missing", map[string]sample{"p.A": {ns: 1000}, "p.Renamed": {ns: 2000, allocs: 40}}, "p.B: missing from NEW"},
	} {
		var out bytes.Buffer
		err := gate(&out, old, tc.fresh)
		switch {
		case tc.fail == "" && err != nil:
			t.Errorf("%s: gate failed: %v\n%s", tc.name, err, out.String())
		case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
			t.Errorf("%s: err = %v, want it to name %q", tc.name, err, tc.fail)
		}
	}
	if err := gate(&bytes.Buffer{}, map[string]sample{}, old); err == nil {
		t.Error("gate passed with no OLD benchmarks")
	}
}
