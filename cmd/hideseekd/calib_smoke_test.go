package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hideseek/internal/emulation"
	"hideseek/internal/iq"
	"hideseek/internal/obs"
	"hideseek/internal/stream"
	"hideseek/internal/zigbee"
)

// calibCapture renders a cf32 capture repeating one class's waveform n
// times: authentic ZigBee frames or their WiFi-emulated counterparts.
func calibCapture(t *testing.T, seed int64, emulated bool, n int) []byte {
	t.Helper()
	auth, err := zigbee.NewTransmitter().TransmitPSDU([]byte("hs-calib"))
	if err != nil {
		t.Fatal(err)
	}
	wf := auth
	if emulated {
		em, err := emulation.NewEmulator(emulation.AttackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := em.Emulate(auth)
		if err != nil {
			t.Fatal(err)
		}
		wf = res.Emulated4M
	}
	wfs := make([][]complex128, n)
	for i := range wfs {
		wfs[i] = wf
	}
	capture, err := stream.BuildCapture(rand.New(rand.NewSource(seed)), 1e-3, 500, wfs...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := iq.WriteCF32(&buf, capture); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// classify POSTs a capture and returns the decided verdicts.
func classify(t *testing.T, url string, capture []byte) []stream.Verdict {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	var cr classifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	for i, v := range cr.Verdicts {
		if !v.Decided() {
			t.Fatalf("%s verdict %d undecided: dropped=%v err=%q", url, i, v.Dropped, v.Err)
		}
	}
	return cr.Verdicts
}

func getCalib(t *testing.T, httpAddr string) calibStatus {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/calib", httpAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st calibStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCalibSmoke is the end-to-end check behind `make calib-smoke`: boot
// the daemon with online calibration on, warm the zigbee class up with
// labeled traffic, assert the fitted threshold lands between the two
// observed populations, push the authentic D² population off its baseline
// (the oscillator-drift regression shape), and assert the drift counter,
// the calibration gauge, and the admin endpoints all surface it — with
// /metrics still passing the Prometheus linter.
func TestCalibSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hideseekd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	proc := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", "2", "-deadline", "10s",
		"-calib", "-calib-warmup", "6", "-calib-drift-every", "1ms")
	stderr, err := proc.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	defer proc.Process.Kill()

	addrs := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "hideseekd: listening on http://"); ok {
				select {
				case addrs <- rest:
				default:
				}
			}
		}
	}()
	var httpAddr string
	select {
	case httpAddr = <-addrs:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not report its listen address")
	}

	// Warmup phase: labeled authentic then labeled emulated traffic. The
	// fallback (default) threshold governs until both classes are warm.
	authV := classify(t, fmt.Sprintf("http://%s/v1/classify?calib_label=authentic", httpAddr),
		calibCapture(t, 61, false, 6))
	if len(authV) != 6 {
		t.Fatalf("authentic warmup: %d verdicts, want 6", len(authV))
	}
	for i, v := range authV {
		if v.CalibSource != "default" {
			t.Fatalf("warmup verdict %d source %q, want default", i, v.CalibSource)
		}
	}
	emulV := classify(t, fmt.Sprintf("http://%s/v1/classify?calib_label=emulated", httpAddr),
		calibCapture(t, 62, true, 6))
	if len(emulV) != 6 {
		t.Fatalf("emulated warmup: %d verdicts, want 6", len(emulV))
	}

	// The fitted boundary must separate the two observed populations.
	maxAuth, minEmul := 0.0, 1e9
	for _, v := range authV {
		if v.DistanceSquared > maxAuth {
			maxAuth = v.DistanceSquared
		}
	}
	for _, v := range emulV {
		if v.DistanceSquared < minEmul {
			minEmul = v.DistanceSquared
		}
	}
	st := getCalib(t, httpAddr)
	if !st.Enabled || len(st.Classes) != 1 {
		t.Fatalf("GET /v1/calib: %+v, want enabled with one class", st)
	}
	cls := st.Classes[0]
	if cls.Class != "zigbee" || cls.State != "calibrated" || cls.Source != "fitted" {
		t.Fatalf("class after warmup: %+v, want calibrated zigbee with fitted source", cls)
	}
	if cls.Threshold <= maxAuth || cls.Threshold >= minEmul {
		t.Fatalf("fitted threshold %v outside the observed class gap (%v, %v)", cls.Threshold, maxAuth, minEmul)
	}

	// Unlabeled traffic now runs against the fitted threshold.
	for i, v := range classify(t, fmt.Sprintf("http://%s/v1/classify", httpAddr), calibCapture(t, 63, false, 2)) {
		if v.CalibSource != "fitted" || v.CalibThreshold != cls.Threshold || v.Attack {
			t.Fatalf("fitted-era verdict %d: (%v, %q, attack=%v), want (%v, fitted, false)",
				i, v.CalibThreshold, v.CalibSource, v.Attack, cls.Threshold)
		}
	}

	// Drift injection: the authentic population walks an order of
	// magnitude above its fitted baseline (operator-labeled replay of
	// drifted-oscillator captures). 16 frames push the 60 s window past
	// the 16-sample drift gate; the windowed quantiles cross the 50%
	// drift limit and the drift counter must move.
	classify(t, fmt.Sprintf("http://%s/v1/classify?calib_label=authentic", httpAddr),
		calibCapture(t, 64, true, 16))
	st = getCalib(t, httpAddr)
	if st.Classes[0].DriftTotal == 0 {
		t.Fatalf("drift injection raised no drift events: %+v", st.Classes[0])
	}
	if st.Classes[0].LastDrift == nil {
		t.Fatalf("drift total %d but no last_drift: %+v", st.Classes[0].DriftTotal, st.Classes[0])
	}

	// Operator override through PUT /v1/calib outranks the fit; clearing
	// restores it. Unknown classes 404.
	put := func(body string) *http.Response {
		req, err := http.NewRequest(http.MethodPut, fmt.Sprintf("http://%s/v1/calib", httpAddr), strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := put(`{"class":"zigbee","threshold":0.42}`)
	var after calibStatusClass
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || after.Source != "operator" || after.Threshold != 0.42 {
		t.Fatalf("override PUT: status %d, class %+v", resp.StatusCode, after)
	}
	resp = put(`{"class":"nope","rearm":true}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown class PUT: status %d, want 404", resp.StatusCode)
	}
	resp = put(`{"class":"zigbee","clear_override":true}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clear_override PUT: status %d", resp.StatusCode)
	}
	if st = getCalib(t, httpAddr); st.Classes[0].Source != "fitted" {
		t.Fatalf("after clear_override: source %q, want fitted", st.Classes[0].Source)
	}

	// /healthz inlines the calibration table.
	resp, err = http.Get(fmt.Sprintf("http://%s/healthz", httpAddr))
	if err != nil {
		t.Fatal(err)
	}
	var h health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || len(h.Calibration) != 1 || h.Calibration[0].Class != "zigbee" {
		t.Fatalf("healthz calibration table: %+v (err %v)", h.Calibration, err)
	}

	// /metrics: lints clean and carries the drift counters and the
	// per-class threshold gauge.
	resp, err = http.Get(fmt.Sprintf("http://%s/metrics", httpAddr))
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	_, err = metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(metrics.Bytes())); err != nil {
		t.Fatalf("/metrics fails lint: %v", err)
	}
	for _, fam := range []string{
		"hideseek_stream_calib_drift_total",
		"hideseek_stream_zigbee_calib_drift_total",
		"hideseek_calib_threshold_zigbee",
	} {
		if !strings.Contains(metrics.String(), fam) {
			t.Errorf("/metrics lacks %q", fam)
		}
	}
	for _, line := range strings.Split(metrics.String(), "\n") {
		if strings.HasPrefix(line, "hideseek_stream_calib_drift_total ") {
			if strings.TrimPrefix(line, "hideseek_stream_calib_drift_total ") == "0" {
				t.Errorf("stream.calib_drift exported as 0 after drift injection")
			}
		}
	}

	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- proc.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// calibStatusClass mirrors calib.Status for decoding PUT responses
// without importing the calib package's time-bearing fields.
type calibStatusClass struct {
	Class     string  `json:"class"`
	State     string  `json:"state"`
	Source    string  `json:"source"`
	Threshold float64 `json:"threshold"`
}
