// Command framebench is hideseek's frame-path benchmark. It measures the
// defended receiver (hideseekd, driven over loopback) and the attacker
// (emulation, in-process) end to end, and in a separate traced run the
// layers in between. See README.md in this directory for the workloads
// and every metric.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash framebench/run.sh --workload zigbee-stream --seed 1 --seconds 10 --trace 0
//	bash framebench/run.sh --workload attack-forge --seed 1 --seconds 10 --trace 1 --out a.json
//	bash framebench/run.sh compare a.json b.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics of the mode (end-to-end with
// --trace 0, per-layer with --trace 1). The command exits 1 when any
// output was wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Metric names, as BENCHMARK.json lists them. latency_tail_ms is printed
// with every end-to-end run but not listed: on a small VM its run-to-run
// spread comes from host stalls, not from the program (see README.md).
var (
	endToEnd = []string{"setup_s", "frames_per_s", "throughput_msps", "latency_p50_ms", "peak_rss_mb"}
	perLayer = []string{
		"iq.parse_ns_per_sample", "hideseekd.encode_us_per_verdict",
		"hideseekd.unattributed_ms_zigbee", "hideseekd.unattributed_ms_lora",
		"stream.cpu_ms_per_msample_zigbee", "stream.cpu_ms_per_msample_lora",
		"stream.self_ms_per_msample_zigbee", "stream.self_ms_per_msample_lora",
		"stream.allocs_per_frame", "stream.bytes_per_frame", "stream.queue_wait_p99_us",
		"stream.sync_useful_ratio_zigbee", "stream.sync_useful_ratio_lora",
		"zigbee.sync_calls_per_frame", "zigbee.sync_us_per_call", "zigbee.framespan_us", "zigbee.decode_us_p50",
		"emulation.detect_us_p50",
		"lora.sync_calls_per_frame", "lora.sync_us_per_call", "lora.framespan_us", "lora.decode_us_p50", "lora.detect_us_p50",
		"zigbee.tx_us", "lora.tx_us", "emulation.emulate_ms_zigbee", "emulation.emulate_ms_lora",
		"dsp.interpolate_us_per_ksample", "wifi.analyze_us_per_symbol", "emulation.select_bins_us",
		"emulation.optimize_alpha_ms", "wifi.quantize_synthesize_us_per_symbol", "dsp.decimate_us_per_ksample",
		"emulation.allocs_per_forge", "emulation.bytes_per_forge",
		"trace.overhead_pct", "loadgen.late_p99_ms", "emulation.detect_error_rate", "lora.detect_error_rate",
	}
	workloads = []string{"zigbee-stream", "lora-classify", "attack-forge"}
)

// daemonStarts is how many times a daemon workload starts hideseekd;
// setup_s is the median.
const daemonStarts = 21

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects and prints a run's metrics as they are measured.
type report struct {
	w       io.Writer
	metrics map[string]metricVal
	tally   tally
	inputs  map[string]string
	notes   []string
}

func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metricVal{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "%-40s %16.6g %-10s %s\n", name, v, unit, note)
}

func (r *report) note(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	r.notes = append(r.notes, s)
	fmt.Fprintln(r.w, "# "+s)
}

// result is the full record of one run, written with -out.
type result struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Trace       bool                 `json:"trace"`
	Correct     bool                 `json:"correct"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Metrics     map[string]metricVal `json:"metrics"`
	Inputs      map[string]string    `json:"inputs_sha256"`
	Fingerprint fingerprint          `json:"fingerprint"`
	Notes       []string             `json:"notes"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "framebench:", err)
			os.Exit(2)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "framebench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after a complete run whose outputs were wrong.
var errIncorrect = errors.New("outputs were wrong; see failure reasons above")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("framebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+fmt.Sprint(workloads))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	daemonBin := fs.String("daemon", "", "prebuilt hideseekd binary")
	outdir := fs.String("outdir", ".", "directory for span dumps")
	out := fs.String("out", "", "also write the full result (fingerprint, input hashes, every metric) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(workloads, *workload) {
		return fmt.Errorf("-workload %q: want one of %v", *workload, workloads)
	}
	if *daemonBin == "" {
		return fmt.Errorf("-daemon is required")
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	fp, err := readFingerprint(*daemonBin)
	if err != nil {
		return err
	}
	fpJSON, _ := json.Marshal(fp) // plain struct: cannot fail
	fmt.Fprintf(stdout, "# fingerprint %s\n", fpJSON)
	rep := &report{w: stdout, metrics: map[string]metricVal{}, inputs: map[string]string{}}
	names := endToEnd
	if *trace == 1 {
		names = perLayer
		err = runTraced(rep, *daemonBin, *workload, *seed, *seconds, filepath.Join(*outdir, fmt.Sprintf("spans-%s-%d.ndjson", *workload, *seed)))
	} else {
		err = runEndToEnd(rep, *daemonBin, *workload, *seed, *seconds)
	}
	if err != nil {
		return err
	}
	for w, h := range rep.inputs {
		fmt.Fprintf(stdout, "# inputs %s sha256 %s\n", w, h)
	}
	fmt.Fprintf(stdout, "# checked %d operations, %d failed (%s)\n", rep.tally.attempted, rep.tally.failed, rep.tally.reasonList())
	res := result{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Correct: rep.tally.ok(), Attempted: rep.tally.attempted, Failed: rep.tally.failed,
		Metrics: rep.metrics, Inputs: rep.inputs, Fingerprint: fp, Notes: rep.notes,
	}
	if *out != "" {
		b, _ := json.MarshalIndent(res, "", "  ") // plain structs: cannot fail
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	final := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricVal{}}
	for _, n := range names {
		m, ok := rep.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		final.Metrics[n] = m
	}
	b, _ := json.Marshal(final) // plain structs: cannot fail
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// latencyMetrics prints a workload's latency_p50_ms, worked out as p50How
// says, and the tail of every latency it timed.
func latencyMetrics(rep *report, p50 float64, p50How string, latencyMS []float64, what string) error {
	t, err := tailOf(latencyMS)
	if err != nil {
		return err
	}
	rep.set("latency_p50_ms", p50, "ms", p50How)
	rep.set("latency_tail_ms", t.value, "ms", what+", "+t.String())
	return nil
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(rep *report, bin, workload string, seed int64, seconds float64) error {
	switch workload {
	case "zigbee-stream":
		w, err := setupZigbee(seed)
		if err != nil {
			return err
		}
		rep.inputs[workload] = w.inputs
		d, setups, err := startDaemonRepeated(bin, daemonStarts)
		if err != nil {
			return err
		}
		r, err := w.run(d.addr, seconds)
		rss, rssErr := d.peakRSSMB()
		if err := errors.Join(err, rssErr, d.stop()); err != nil {
			return err
		}
		rep.tally.add(r.tally)
		rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d daemon starts, exec to /healthz 200", len(setups)))
		fps, sps := r.flatRate(w)
		what := fmt.Sprintf("flat-out phase, fastest of %d windows of %d blocks", len(r.flatWindowS), zbWindowBlocks)
		rep.set("frames_per_s", fps, "1/s", what)
		rep.set("throughput_msps", sps/1e6, "MS/s", what)
		rep.note("flat-out phase averages: %.4g frames/s, %.4g MS/s", float64(r.flatFrames)/r.flatSeconds, float64(r.flatSamples)/r.flatSeconds/1e6)
		what = fmt.Sprintf("paced phase at %.1f MS/s, last sample due to verdict read", zbPacedMSps)
		if err := latencyMetrics(rep, median(r.latencyMS), what, r.latencyMS, what); err != nil {
			return err
		}
		rep.set("peak_rss_mb", rss, "MiB", "daemon VmHWM")
		late := checkLoadgen(rep, r.lateMS)
		fmt.Fprintf(rep.w, "%-40s %16.6g %-10s p99 over %d writes, bound %g ms\n", "loadgen.late_p99_ms", late, "ms", len(r.lateMS), loadgenLateBoundMS)
		finishDaemonWorkload(rep, r.tally)
		return nil
	case "lora-classify":
		w, err := setupLoRa(seed)
		if err != nil {
			return err
		}
		rep.inputs[workload] = w.inputs
		d, setups, err := startDaemonRepeated(bin, daemonStarts)
		if err != nil {
			return err
		}
		r, err := w.run(d.addr, seconds)
		rss, rssErr := d.peakRSSMB()
		if err := errors.Join(err, rssErr, d.stop()); err != nil {
			return err
		}
		rep.tally.add(r.tally)
		rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d daemon starts, exec to /healthz 200", len(setups)))
		frames, samples, cycleS := r.cycle(w)
		rep.set("frames_per_s", float64(frames)/cycleS, "1/s", fmt.Sprintf("%d closed-loop connections, each capture at its fastest round trip", loraConns))
		rep.set("throughput_msps", float64(samples)/cycleS/1e6, "MS/s", "each capture at its fastest round trip")
		if err := latencyMetrics(rep, median(r.captureFastest()), "median over the captures of each one's fastest round trip",
			r.latencyMS, "request round trip"); err != nil {
			return err
		}
		rep.note("whole-run averages: %.4g frames/s, %.4g MS/s, median round trip %.4g ms over %d requests",
			float64(r.frames)/r.seconds, float64(r.samples)/r.seconds/1e6, median(r.latencyMS), len(r.latencyMS))
		rep.set("peak_rss_mb", rss, "MiB", "daemon VmHWM")
		finishDaemonWorkload(rep, r.tally)
		return nil
	default:
		w, err := setupAttack(seed, attackSetups)
		if err != nil {
			return err
		}
		rep.inputs[workload] = w.hash
		rep.tally.add(w.tally)
		r, err := w.run(seconds)
		if err != nil {
			return err
		}
		rep.tally.add(r.tally)
		rss, err := vmHWM(os.Getpid())
		if err != nil {
			return err
		}
		rep.set("setup_s", median(w.setupS), "s", fmt.Sprintf("median of %d: NewEmulator + one warm-up forge of each input", len(w.setupS)))
		frames, samples, cycleS := r.cycle(w)
		rep.set("frames_per_s", float64(frames)/cycleS, "1/s", "forged frames, one goroutine, each input at its fastest call")
		rep.set("throughput_msps", float64(samples)/cycleS/1e6, "MS/s", "victim samples forged, each input at its fastest call")
		if err := latencyMetrics(rep, median(r.fastestMS), "median over the inputs of each one's fastest forge call",
			r.latencyMS, "one forge call"); err != nil {
			return err
		}
		rep.note("whole-run averages: %.4g frames/s, %.4g MS/s, median call %.4g ms over %d calls",
			float64(r.forges)/r.seconds, float64(r.samples)/r.seconds/1e6, median(r.latencyMS), r.forges)
		rep.set("peak_rss_mb", rss, "MiB", "attacker process VmHWM")
		fmt.Fprintf(rep.w, "%-40s %16.6g %-10s\n", "error_rate", rep.tally.errorRate(), "ratio")
		return nil
	}
}

// finishDaemonWorkload prints the correctness rates.
func finishDaemonWorkload(rep *report, t tally) {
	fmt.Fprintf(rep.w, "%-40s %16.6g %-10s\n", "error_rate", rep.tally.errorRate(), "ratio")
	fmt.Fprintf(rep.w, "%-40s %16.6g %-10s %s\n", "detect_error_rate", t.detectErrorRate(), "ratio",
		fmt.Sprintf("%d of %d decided frames", t.detectErrors, t.decided))
}

// checkLoadgen returns the paced sender's p99 lateness and fails the run
// when it is past the benchmark's bound.
func checkLoadgen(rep *report, lateMS []float64) float64 {
	late := quantile(lateMS, 0.99)
	if late > loadgenLateBoundMS {
		rep.tally.attempted++
		rep.tally.fail("loadgen-late")
		rep.note("run invalid: the paced sender ran %.2f ms late at p99, past the %g ms bound", late, loadgenLateBoundMS)
	}
	return late
}

// runTraced is the traced run: every workload's daemon or attack phase
// for a third of the time each, then each workload's inputs replayed
// in-process with every layer call timed. It always covers all three
// workloads, so each traced run reports every per-layer metric; the
// named workload goes first.
func runTraced(rep *report, bin, first string, seed int64, seconds float64, spansPath string) error {
	order := append([]string{first}, slices.DeleteFunc(slices.Clone(workloads), func(w string) bool { return w == first })...)
	part := seconds / float64(len(order))
	var oh overhead
	recs := map[string]*recorder{}
	for _, wl := range order {
		start := time.Now()
		var err error
		switch wl {
		case "zigbee-stream":
			err = tracedZigbee(rep, bin, seed, part, &oh, recs)
		case "lora-classify":
			err = tracedLoRa(rep, bin, seed, part, &oh, recs)
		default:
			err = tracedAttack(rep, seed, part, &oh, recs)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		rep.note("%s traced in %.1f s", wl, time.Since(start).Seconds())
	}
	rep.set("trace.overhead_pct", oh.pct(), "%", fmt.Sprintf("traced %.1f ms vs untraced %.1f ms of replay",
		float64(oh.traced.Microseconds())/1e3, float64(oh.untraced.Microseconds())/1e3))
	if err := writeSpans(spansPath, recs); err != nil {
		return err
	}
	rep.note("spans written to %s", spansPath)
	return nil
}

func tracedZigbee(rep *report, bin string, seed int64, seconds float64, oh *overhead, recs map[string]*recorder) error {
	w, err := setupZigbee(seed)
	if err != nil {
		return err
	}
	rep.inputs["zigbee-stream"] = w.inputs
	d, _, err := startDaemonRepeated(bin, 1)
	if err != nil {
		return err
	}
	r, err := w.run(d.addr, seconds)
	if err := errors.Join(err, d.stop()); err != nil {
		return err
	}
	rep.tally.add(r.tally)
	return zigbeeLayers(rep, w, r, oh, recs)
}

func tracedLoRa(rep *report, bin string, seed int64, seconds float64, oh *overhead, recs map[string]*recorder) error {
	w, err := setupLoRa(seed)
	if err != nil {
		return err
	}
	rep.inputs["lora-classify"] = w.inputs
	d, _, err := startDaemonRepeated(bin, 1)
	if err != nil {
		return err
	}
	r, err := w.run(d.addr, seconds)
	if err := errors.Join(err, d.stop()); err != nil {
		return err
	}
	rep.tally.add(r.tally)
	return loraLayers(rep, w, r, oh, recs)
}

func tracedAttack(rep *report, seed int64, seconds float64, oh *overhead, recs map[string]*recorder) error {
	w, err := setupAttack(seed, 1)
	if err != nil {
		return err
	}
	rep.inputs["attack-forge"] = w.hash
	rep.tally.add(w.tally)
	r, err := w.run(seconds)
	if err != nil {
		return err
	}
	rep.tally.add(r.tally)
	return attackLayers(rep, w, oh, recs)
}
