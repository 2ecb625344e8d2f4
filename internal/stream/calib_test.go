package stream

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"hideseek/internal/calib"
	"hideseek/internal/emulation"
	"hideseek/internal/obs"
)

// tickClock is an injectable calibration clock that advances a fixed step
// on every read, so per-frame drift checks and window counts see time
// moving without real sleeps, plus an explicit jump for aging windows out.
type tickClock struct {
	mu sync.Mutex
	t  time.Time
	d  time.Duration
}

func newTickClock() *tickClock {
	return &tickClock{t: time.Unix(1_700_000_000, 0), d: 2 * time.Millisecond}
}

func (c *tickClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.d)
	return c.t
}

func (c *tickClock) jump(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func calibTestConfig(tb testing.TB, clk *tickClock) Config {
	cfg := testConfig(tb)
	cfg.Calibration = &calib.Config{
		WarmupPerClass:  6,
		DriftCheckEvery: time.Millisecond,
		Now:             clk.now,
	}
	return cfg
}

// repeat builds a capture carrying the waveform n times.
func repeatCapture(t *testing.T, seed int64, wf []complex128, n int) []complex128 {
	t.Helper()
	wfs := make([][]complex128, n)
	for i := range wfs {
		wfs[i] = wf
	}
	capture, err := BuildCapture(rand.New(rand.NewSource(seed)), 1e-3, 600, wfs...)
	if err != nil {
		t.Fatal(err)
	}
	return capture
}

func runSession(t *testing.T, e *Engine, capture []complex128, opts ...SessionOption) []Verdict {
	t.Helper()
	var got []Verdict
	if _, err := e.Process(context.Background(), NewSliceSource(capture), func(v Verdict) {
		got = append(got, v)
	}, opts...); err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if !v.Decided() {
			t.Fatalf("verdict %d: dropped=%v err=%q", v.Seq, v.Dropped, v.Err)
		}
	}
	return got
}

// TestCalibDisabledVerdictsUnchanged: with Config.Calibration nil the
// verdict JSON carries no calibration fields at all (omitempty), so
// existing goldens stay byte-identical.
func TestCalibDisabledVerdictsUnchanged(t *testing.T) {
	authentic, emulated := testFrames(t, []byte("calib-off"))
	capture, err := BuildCapture(rand.New(rand.NewSource(3)), 1e-3, 700, authentic, emulated)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := streamVerdicts(t, capture, testConfig(t))
	if len(got) != 2 {
		t.Fatalf("%d verdicts, want 2", len(got))
	}
	for _, v := range got {
		if v.CalibThreshold != 0 || v.CalibSource != "" {
			t.Fatalf("calibration disabled but verdict carries (%v, %q)", v.CalibThreshold, v.CalibSource)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), "calib") {
			t.Fatalf("verdict JSON leaks calibration fields: %s", b)
		}
	}
}

// TestCalibWarmupFitAndOverride walks the whole threshold life cycle
// through the streaming pipeline: default during warmup, a fitted
// boundary strictly between the observed class populations once labeled
// warmup traffic completes, and an operator override that outranks the
// fit and demonstrably retunes the session detectors.
func TestCalibWarmupFitAndOverride(t *testing.T) {
	authentic, emulated := testFrames(t, []byte("calib-fit"))
	clk := newTickClock()
	e, err := NewEngine(calibTestConfig(t, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Warmup: labeled authentic then labeled emulated traffic.
	authV := runSession(t, e, repeatCapture(t, 21, authentic, 6), WithWarmupLabel(calib.LabelAuthentic))
	for _, v := range authV {
		if v.CalibSource != "default" || v.CalibThreshold != emulation.DefaultThreshold {
			t.Fatalf("warmup verdict carries (%v, %q), want (%v, default)",
				v.CalibThreshold, v.CalibSource, emulation.DefaultThreshold)
		}
	}
	emulV := runSession(t, e, repeatCapture(t, 22, emulated, 6), WithWarmupLabel(calib.LabelEmulated))
	if len(authV) != 6 || len(emulV) != 6 {
		t.Fatalf("warmup found %d authentic / %d emulated frames, want 6/6", len(authV), len(emulV))
	}

	cal, ok := e.Calibration().Lookup("zigbee")
	if !ok {
		t.Fatal("no zigbee calibration class after warmup sessions")
	}
	if !cal.Calibrated() {
		t.Fatalf("class not calibrated after %d+%d labeled samples: %+v", len(authV), len(emulV), cal.Status())
	}
	thr, src := cal.Threshold()
	if src != calib.SourceFitted {
		t.Fatalf("post-warmup source %v, want fitted", src)
	}
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
	if thr <= maxAuth || thr >= minEmul {
		t.Fatalf("fitted threshold %v outside the observed class gap (%v, %v)", thr, maxAuth, minEmul)
	}

	// An unlabeled session now runs against the fitted boundary.
	fittedV := runSession(t, e, repeatCapture(t, 23, authentic, 2))
	for _, v := range fittedV {
		if v.CalibSource != "fitted" || v.CalibThreshold != thr {
			t.Fatalf("fitted-era verdict carries (%v, %q), want (%v, fitted)", v.CalibThreshold, v.CalibSource, thr)
		}
		if v.Attack {
			t.Fatalf("authentic frame flagged under fitted threshold %v (D² %v)", thr, v.DistanceSquared)
		}
	}

	// Operator override outranks the fit — and must actually retune the
	// detector clone: a threshold below the authentic D² floor flips every
	// authentic frame to Attack.
	if err := cal.SetOverride(1e-9); err != nil {
		t.Fatal(err)
	}
	overV := runSession(t, e, repeatCapture(t, 24, authentic, 2))
	for _, v := range overV {
		if v.CalibSource != "operator" || v.CalibThreshold != 1e-9 {
			t.Fatalf("override verdict carries (%v, %q), want (1e-9, operator)", v.CalibThreshold, v.CalibSource)
		}
		if !v.Attack {
			t.Fatalf("override threshold 1e-9 did not retune the detector (D² %v, attack=false)", v.DistanceSquared)
		}
	}
	cal.ClearOverride()
	if _, src := cal.Threshold(); src != calib.SourceFitted {
		t.Fatalf("cleared override: source %v, want fitted", src)
	}
}

// TestCalibDriftCounterAndSpan: once the baseline has aged out and the
// authentic D² population shifts, the pipeline raises drift events on the
// stream.calib_drift counters and errors the frame trace's calib span.
func TestCalibDriftCounterAndSpan(t *testing.T) {
	authentic, emulated := testFrames(t, []byte("calib-drift"))
	clk := newTickClock()
	tracer := obs.NewTracer(obs.TracerConfig{Ring: 64})
	defer tracer.Close()
	cfg := calibTestConfig(t, clk)
	cfg.Tracer = tracer
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	runSession(t, e, repeatCapture(t, 31, authentic, 6), WithWarmupLabel(calib.LabelAuthentic))
	runSession(t, e, repeatCapture(t, 32, emulated, 6), WithWarmupLabel(calib.LabelEmulated))
	cal, ok := e.Calibration().Lookup("zigbee")
	if !ok || !cal.Calibrated() {
		t.Fatal("warmup did not calibrate the zigbee class")
	}

	// Age the baseline window out, then feed operator-labeled authentic
	// traffic whose D² sits an order of magnitude above the fitted
	// baseline (emulated waveforms asserted authentic — the labeled-replay
	// shape of an oscillator-drift regression test), more frames than the
	// 16 the drift window needs before it is judged.
	clk.jump(3 * time.Minute)
	globalBefore := obsCalibDrift.Value()
	protoBefore := e.pipes[0].obs.calibDrift.Value()
	const driftFrames = 20
	driftV := runSession(t, e, repeatCapture(t, 33, emulated, driftFrames), WithWarmupLabel(calib.LabelAuthentic))
	if len(driftV) != driftFrames {
		t.Fatalf("%d drift-phase verdicts, want %d", len(driftV), driftFrames)
	}
	if cal.DriftTotal() == 0 {
		t.Fatalf("shifted authentic population raised no drift events: %+v", cal.Status())
	}
	if got := obsCalibDrift.Value(); got <= globalBefore {
		t.Fatalf("stream.calib_drift stayed at %d", got)
	}
	if got := e.pipes[0].obs.calibDrift.Value(); got <= protoBefore {
		t.Fatalf("stream.zigbee.calib_drift stayed at %d", got)
	}
	if st := cal.Status(); st.LastDrift == nil || st.LastDrift.Shift <= 0.5 {
		t.Fatalf("status carries no usable drift event: %+v", st)
	}

	// At least one finished trace must carry an errored calib span.
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	var calibSpans, erroredSpans int
	for _, tr := range tracer.Recent(0) {
		for _, sp := range tr.Spans {
			if sp.Stage == traceStageCalib {
				calibSpans++
				if sp.Err != "" {
					erroredSpans++
				}
			}
		}
	}
	if calibSpans == 0 {
		t.Fatal("no trace carries a calib span")
	}
	if erroredSpans == 0 {
		t.Fatal("drift events raised but no calib span recorded the error")
	}
}

// TestCalibSharedAcrossFleetShards: one calibration manager serves every
// shard, so a class fitted through sessions on one shard governs sessions
// landing on any other (including via shard-affinity keys).
func TestCalibSharedAcrossFleetShards(t *testing.T) {
	authentic, emulated := testFrames(t, []byte("calib-fleet"))
	clk := newTickClock()
	cfg := calibTestConfig(t, clk)
	cfg.Shards = 3
	f, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	run := func(capture []complex128, opts ...SessionOption) []Verdict {
		t.Helper()
		var got []Verdict
		if _, err := f.Process(context.Background(), NewSliceSource(capture), func(v Verdict) {
			got = append(got, v)
		}, opts...); err != nil {
			t.Fatal(err)
		}
		return got
	}
	// Warmup sessions pinned to one shard.
	run(repeatCapture(t, 41, authentic, 6), WithSessionKey("warmup"), WithWarmupLabel(calib.LabelAuthentic))
	run(repeatCapture(t, 42, emulated, 6), WithSessionKey("warmup"), WithWarmupLabel(calib.LabelEmulated))

	cal, ok := f.Calibration().Lookup("zigbee")
	if !ok || !cal.Calibrated() {
		t.Fatal("fleet warmup did not calibrate the zigbee class")
	}
	thr, _ := cal.Threshold()

	// Sessions on every other shard see the same fitted threshold.
	for _, key := range []string{"a", "b", "c", "d"} {
		for _, v := range run(repeatCapture(t, 43, authentic, 1), WithSessionKey(key)) {
			if v.CalibSource != "fitted" || v.CalibThreshold != thr {
				t.Fatalf("key %q: verdict carries (%v, %q), want fleet-shared (%v, fitted)",
					key, v.CalibThreshold, v.CalibSource, thr)
			}
		}
	}
}

// TestCalibClassRefusedBeforeSession: a class name the manager refuses
// fails Process before the session starts, creates no class, and is
// ignored when calibration is off.
func TestCalibClassRefusedBeforeSession(t *testing.T) {
	e, err := NewEngine(calibTestConfig(t, newTickClock()))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sessions := e.shards[0].sessions.Value()
	if _, err := e.Process(context.Background(), NewSliceSource(nil), nil, WithCalibClass("a.b")); !errors.Is(err, calib.ErrClassRefused) {
		t.Fatalf("class a.b: err %v, want calib.ErrClassRefused", err)
	}
	if got := e.shards[0].sessions.Value(); got != sessions {
		t.Fatalf("refused session counted: %d sessions, want %d", got, sessions)
	}
	if st := e.Calibration().Status(); len(st) != 0 {
		t.Fatalf("refused class created %+v", st)
	}

	off, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if _, err := off.Process(context.Background(), NewSliceSource(nil), nil, WithCalibClass("a.b")); err != nil {
		t.Fatalf("calibration off: class a.b failed the session: %v", err)
	}
}
