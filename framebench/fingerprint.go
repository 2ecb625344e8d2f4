package main

import (
	"bufio"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// fingerprint identifies the host and build a result came from.
type fingerprint struct {
	CPUModel         string   `json:"cpu_model"`
	NProc            int      `json:"nproc"`
	GOMAXPROCSBench  int      `json:"gomaxprocs_bench"`
	GOMAXPROCSDaemon int      `json:"gomaxprocs_daemon"`
	GoVersion        string   `json:"go_version"`
	Commit           string   `json:"commit"`
	SourceSHA256     string   `json:"source_sha256"`
	DaemonFlags      []string `json:"daemon_flags"`
}

func readFingerprint(daemonBin string) (fingerprint, error) {
	fp := fingerprint{
		CPUModel:        cpuModel(),
		NProc:           runtime.NumCPU(),
		GOMAXPROCSBench: runtime.GOMAXPROCS(0),
		// The daemon inherits this process's environment and CPU
		// affinity, from which the Go runtime sizes GOMAXPROCS.
		GOMAXPROCSDaemon: runtime.NumCPU(),
		Commit:           "unknown",
		DaemonFlags:      daemonFlags,
	}
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		fp.GOMAXPROCSDaemon = n
	}
	info, err := buildinfo.ReadFile(daemonBin)
	if err != nil {
		return fp, fmt.Errorf("read hideseekd build info: %w", err)
	}
	fp.GoVersion = info.GoVersion
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			fp.Commit = s.Value
		case "vcs.modified":
			if s.Value == "true" && fp.Commit != "unknown" {
				fp.Commit += "+modified"
			}
		}
	}
	fp.SourceSHA256, err = sourceHash(".")
	return fp, err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests the Go sources and module files under root, so a
// result names the code it measured even outside a git checkout.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	slices.Sort(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hostDiffs lists the fingerprint fields that make two results measured
// on different hosts or toolchains; the commit and source hash are
// expected to differ between compared builds and are reported apart.
func hostDiffs(a, b fingerprint) []string {
	var d []string
	add := func(field string, x, y any) {
		if fmt.Sprint(x) != fmt.Sprint(y) {
			d = append(d, fmt.Sprintf("%s: %v vs %v", field, x, y))
		}
	}
	add("cpu_model", a.CPUModel, b.CPUModel)
	add("nproc", a.NProc, b.NProc)
	add("gomaxprocs_bench", a.GOMAXPROCSBench, b.GOMAXPROCSBench)
	add("gomaxprocs_daemon", a.GOMAXPROCSDaemon, b.GOMAXPROCSDaemon)
	add("go_version", a.GoVersion, b.GoVersion)
	add("daemon_flags", a.DaemonFlags, b.DaemonFlags)
	return d
}

// compare prints two results' metrics side by side and warns when their
// fingerprints say they were measured on different hosts.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: framebench compare OLD.json NEW.json")
	}
	var rs [2]result
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	old, cur := rs[0], rs[1]
	for _, d := range hostDiffs(old.Fingerprint, cur.Fingerprint) {
		fmt.Fprintf(w, "WARNING: fingerprints differ, %s\n", d)
		fmt.Fprintf(os.Stderr, "framebench: WARNING: fingerprints differ, %s\n", d)
	}
	fmt.Fprintf(w, "# commit %s vs %s\n", old.Fingerprint.Commit, cur.Fingerprint.Commit)
	if old.Workload != cur.Workload || old.Seed != cur.Seed || old.Trace != cur.Trace {
		fmt.Fprintf(w, "WARNING: runs differ: %s seed %d trace %v vs %s seed %d trace %v\n",
			old.Workload, old.Seed, old.Trace, cur.Workload, cur.Seed, cur.Trace)
	}
	var names []string
	for n := range old.Metrics {
		if _, ok := cur.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	for _, n := range names {
		a, b := old.Metrics[n], cur.Metrics[n]
		delta := "n/a"
		if a.Value != 0 {
			delta = fmt.Sprintf("%+.2f%%", 100*(b.Value-a.Value)/a.Value)
		}
		fmt.Fprintf(w, "%-40s %14.6g %14.6g %-10s %s\n", n, a.Value, b.Value, a.Unit, delta)
	}
	return nil
}
