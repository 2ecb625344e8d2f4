// Command benchreport is the same-host perf gate for the defense's
// per-frame path. It takes two checkouts of this module, OLD and NEW,
// builds the gated packages' test binaries in each once, runs the
// StreamScan, StreamScanLoRa, DecodeAt and DetectorAnalyze benchmarks
// in each for ten rounds, alternating which side goes first, and
// compares each side's fastest repeat. NEW fails the gate when a
// benchmark
//
//   - runs more than 25 % slower in ns/op than in OLD,
//   - allocates more per op than in OLD at all, or
//   - is missing.
//
// ns/op is read with the collector on, so it includes collection cost;
// allocs/op is read from a second run with the collector off.
// Both sides run on one host in one job, so the ratio compares like
// with like; the fastest repeat discounts the host's speed drift.
//
// Usage:
//
//	benchreport OLD NEW
//
// `make bench-compare BASE=<rev>` checks BASE out into a git worktree
// and gates the working tree against it.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	rounds = 10
	// maxRatio is the largest NEW/OLD fastest-repeat ns/op ratio that
	// passes.
	maxRatio = 1.25
)

// benchRuns are one side's go test calls per round. StreamScanLoRa gets
// a call of its own at a fixed 40 ops: at 100 ms it runs about 8.
var benchRuns = []struct {
	regexp, benchtime string
	packages          []string
}{
	{"StreamScan$|DecodeAt|DetectorAnalyze", "100ms", packages},
	{"StreamScanLoRa$", "40x", []string{"./internal/stream"}},
}

// packages holds every gated benchmark.
var packages = []string{"./internal/zigbee", "./internal/stream", "./internal/emulation"}

// sample is one benchmark's ns/op and allocs/op.
type sample struct {
	ns, allocs float64
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchreport OLD NEW")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
}

// run measures both checkouts over alternating rounds and gates NEW
// against OLD.
func run(oldDir, newDir string, stdout, stderr io.Writer) error {
	tmp, err := os.MkdirTemp("", "benchreport")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	dirs := [2]string{oldDir, newDir}
	bins := [2]string{filepath.Join(tmp, "old"), filepath.Join(tmp, "new")}
	for side := range dirs {
		if err := build(dirs[side], bins[side], stderr); err != nil {
			return err
		}
	}
	best := [2]map[string]sample{{}, {}}
	for r := 0; r < rounds; r++ {
		fmt.Fprintf(stderr, "round %d/%d: %s first\n", r+1, rounds, dirs[r%2])
		for k := 0; k < 2; k++ {
			side := (r + k) % 2
			res, err := benchOnce(dirs[side], bins[side], stderr)
			if err != nil {
				return err
			}
			keepFastest(best[side], res)
		}
	}
	return gate(stdout, best[0], best[1])
}

// build compiles the test binaries of the gated packages of the module
// at dir into the directory bin, so the rounds run binaries and never
// rebuild them.
func build(dir, bin string, stderr io.Writer) error {
	args := append([]string{"test", "-c", "-o", bin + string(filepath.Separator)}, packages...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stdout = stderr
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: go %s: %w", dir, strings.Join(args, " "), err)
	}
	return nil
}

// benchOnce runs the gated benchmarks of the module at dir once from the
// test binaries in bin, one binary at a time. ns/op comes from a run
// with the collector on, allocs/op from a second run with GOGC=off:
// each collection empties the stream buffer pools at a varying point and
// moves a session benchmark's allocs/op by one (DESIGN.md §10).
func benchOnce(dir, bin string, stderr io.Writer) (map[string]sample, error) {
	res := make(map[string]sample)
	for _, r := range benchRuns {
		for _, pkg := range r.packages {
			timed, err := benchBinary(dir, bin, pkg, r.regexp, r.benchtime, "", stderr)
			if err != nil {
				return nil, err
			}
			counted, err := benchBinary(dir, bin, pkg, r.regexp, r.benchtime, "GOGC=off", stderr)
			if err != nil {
				return nil, err
			}
			for name, s := range timed {
				if c, ok := counted[name]; ok {
					res[name] = sample{ns: s.ns, allocs: c.allocs}
				}
			}
		}
	}
	return res, nil
}

// benchBinary runs one package's test binary from bin on the benchmarks
// matching regexp, in the package's directory under dir and with env
// (if any) added to the environment, and parses its output.
func benchBinary(dir, bin, pkg, regexp, benchtime, env string, stderr io.Writer) (map[string]sample, error) {
	args := []string{"-test.run", "^$", "-test.bench", regexp, "-test.benchmem", "-test.benchtime", benchtime}
	cmd := exec.Command(filepath.Join(bin, path.Base(pkg)+".test"), args...)
	cmd.Dir = filepath.Join(dir, pkg)
	cmd.Env = os.Environ()
	if env != "" {
		cmd.Env = append(cmd.Env, env)
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %s %s %s: %w\n%s", dir, env, cmd.Path, strings.Join(args, " "), err, out.String())
	}
	return parseBenchOutput(out.String()), nil
}

// parseBenchOutput reads plain `go test -bench -benchmem` output and
// returns each result keyed by package path and benchmark name, e.g.
// "hideseek/internal/zigbee.DecodeAt".
func parseBenchOutput(out string) map[string]sample {
	res := make(map[string]sample)
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if name, s, ok := parseBenchLine(line); ok {
			res[pkg+"."+name] = s
		}
	}
	return res
}

// parseBenchLine parses one benchmark result line, e.g.
//
//	BenchmarkDecodeAt-2   438   259403 ns/op   87 B/op   0 allocs/op
//
// into the name without the Benchmark prefix and -GOMAXPROCS suffix, and
// its ns/op and allocs/op. ok is false for any other line.
func parseBenchLine(line string) (name string, s sample, ok bool) {
	fields := strings.Fields(line)
	// A result line is "Name iterations {value unit}...".
	if len(fields) < 4 || len(fields)%2 != 0 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", sample{}, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", sample{}, false
	}
	name = strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	hasNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", sample{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			s.ns, hasNs = v, true
		case "allocs/op":
			s.allocs = v
		}
	}
	return name, s, hasNs
}

// keepFastest folds one run into best, keeping each benchmark's lowest
// ns/op and lowest allocs/op seen so far.
func keepFastest(best, run map[string]sample) {
	for name, s := range run {
		b, seen := best[name]
		if !seen {
			best[name] = s
			continue
		}
		b.ns = min(b.ns, s.ns)
		b.allocs = min(b.allocs, s.allocs)
		best[name] = b
	}
}

// gate prints the comparison table and returns an error listing every
// benchmark of OLD that NEW lacks, runs more than maxRatio slower, or
// allocates more.
func gate(w io.Writer, old, fresh map[string]sample) error {
	if len(old) == 0 {
		return fmt.Errorf("no gated benchmarks ran in OLD")
	}
	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "fastest of %d rounds, NEW/OLD ns/op must stay <= %.2f, allocs/op must not grow\n", rounds, maxRatio)
	var violations []string
	for _, name := range names {
		o := old[name]
		n, ok := fresh[name]
		if !ok {
			violations = append(violations, name+": missing from NEW")
			fmt.Fprintf(w, "  %-42s %10.0f ns/op  MISSING\n", name, o.ns)
			continue
		}
		ratio := n.ns / o.ns
		status := "ok"
		if ratio > maxRatio {
			status = "SLOWER"
			violations = append(violations, fmt.Sprintf("%s: ns/op %.0f -> %.0f (x%.2f > x%.2f)", name, o.ns, n.ns, ratio, maxRatio))
		}
		if n.allocs > o.allocs {
			status = "ALLOCS"
			violations = append(violations, fmt.Sprintf("%s: allocs/op %.0f -> %.0f", name, o.allocs, n.allocs))
		}
		fmt.Fprintf(w, "  %-42s %10.0f -> %10.0f ns/op (x%.2f)  %3.0f -> %3.0f allocs/op  %s\n",
			name, o.ns, n.ns, ratio, o.allocs, n.allocs, status)
	}
	if len(violations) > 0 {
		return fmt.Errorf("perf gate failed (%d):\n  %s", len(violations), strings.Join(violations, "\n  "))
	}
	fmt.Fprintf(w, "gate passed: %d benchmark(s)\n", len(names))
	return nil
}
