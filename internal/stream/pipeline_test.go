package stream

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hideseek/internal/emulation"
	"hideseek/internal/phy"
	"hideseek/internal/phy/zigbeephy"
	"hideseek/internal/zigbee"
)

// testFrames builds one authentic ZigBee frame and its emulated (WiFi
// waveform-emulation attack) counterpart.
func testFrames(t *testing.T, psdu []byte) (authentic, emulated []complex128) {
	t.Helper()
	tx := zigbee.NewTransmitter()
	authentic, err := tx.TransmitPSDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	em, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Emulate(authentic)
	if err != nil {
		t.Fatal(err)
	}
	return authentic, res.Emulated4M
}

// testRx is the receiver configuration shared by the test pipeline and
// the batch reference.
var testRx = zigbee.ReceiverConfig{SyncThreshold: 0.3}

// zigbeePipeline builds the ZigBee pipeline the stream tests serve.
func zigbeePipeline(tb testing.TB) *phy.Pipeline {
	tb.Helper()
	p, err := zigbeephy.NewPipeline(testRx, emulation.DefenseConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func testConfig(tb testing.TB) Config {
	return Config{Pipelines: []*phy.Pipeline{zigbeePipeline(tb)}}
}

// refVerdict is the batch golden: what the whole-capture receiver plus
// emulation.Detector decide about one frame.
type refVerdict struct {
	offset int
	psdu   string
	peak   float64
	c40re  float64
	c40im  float64
	c42    float64
	d2     float64
	attack bool
}

// batchVerdicts runs the batch reference pipeline (ReceiveAll + Detector)
// over a capture.
func batchVerdicts(t *testing.T, capture []complex128) []refVerdict {
	t.Helper()
	rx, err := zigbee.NewReceiver(testRx)
	if err != nil {
		t.Fatal(err)
	}
	det, err := emulation.NewDetector(emulation.DefenseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rx.ReceiveAll(capture, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]refVerdict, 0, len(recs))
	for _, rec := range recs {
		v, err := det.AnalyzeReception(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, refVerdict{
			offset: rec.StartSample,
			psdu:   string(rec.PSDU),
			peak:   rec.SyncPeak,
			c40re:  real(v.Cumulants.C40),
			c40im:  imag(v.Cumulants.C40),
			c42:    v.Cumulants.C42,
			d2:     v.DistanceSquared,
			attack: v.Attack,
		})
	}
	return out
}

// streamVerdicts runs the streaming pipeline over the same capture.
func streamVerdicts(t *testing.T, capture []complex128, cfg Config) ([]Verdict, Stats) {
	t.Helper()
	var got []Verdict
	stats, err := Process(context.Background(), cfg, NewSliceSource(capture), func(v Verdict) {
		got = append(got, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

// compareToBatch asserts the streaming verdicts are byte-identical to the
// batch goldens, floats compared with ==.
func compareToBatch(t *testing.T, got []Verdict, want []refVerdict) {
	t.Helper()
	decided := make([]Verdict, 0, len(got))
	for _, v := range got {
		if v.Dropped || v.Err != "" {
			t.Fatalf("verdict %d: dropped=%v err=%q, want clean decode", v.Seq, v.Dropped, v.Err)
		}
		decided = append(decided, v)
	}
	if len(decided) != len(want) {
		t.Fatalf("stream found %d frames, batch found %d", len(decided), len(want))
	}
	for i, v := range decided {
		w := want[i]
		if v.Seq != uint64(i) {
			t.Errorf("frame %d: seq %d out of order", i, v.Seq)
		}
		if v.Offset != int64(w.offset) {
			t.Errorf("frame %d: offset %d, batch %d", i, v.Offset, w.offset)
		}
		if string(v.PSDU) != w.psdu {
			t.Errorf("frame %d: PSDU %q, batch %q", i, v.PSDU, w.psdu)
		}
		if v.SyncPeak != w.peak {
			t.Errorf("frame %d: sync peak %v, batch %v", i, v.SyncPeak, w.peak)
		}
		if v.C40Re != w.c40re || v.C40Im != w.c40im || v.C42 != w.c42 {
			t.Errorf("frame %d: cumulants (%v,%v,%v), batch (%v,%v,%v)",
				i, v.C40Re, v.C40Im, v.C42, w.c40re, w.c40im, w.c42)
		}
		if v.DistanceSquared != w.d2 {
			t.Errorf("frame %d: D²E %v, batch %v", i, v.DistanceSquared, w.d2)
		}
		if v.Attack != w.attack {
			t.Errorf("frame %d: attack %v, batch %v", i, v.Attack, w.attack)
		}
	}
}

// TestChunkSizesMatchBatch is the headline acceptance check: for every
// chunk size in {256, 1024, 4096, 16384} the streaming verdicts on a
// mixed authentic+emulated capture are identical to the batch detector's.
func TestChunkSizesMatchBatch(t *testing.T) {
	authentic, emulated := testFrames(t, []byte("stream-frame"))
	capture, err := BuildCapture(rand.New(rand.NewSource(7)), 1e-3, 900, authentic, emulated, authentic)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	want := batchVerdicts(t, capture)
	if len(want) != 3 {
		t.Fatalf("batch receiver found %d frames, want 3", len(want))
	}
	if want[0].attack || !want[1].attack || want[2].attack {
		t.Fatalf("batch verdicts [%v %v %v], want [false true false]",
			want[0].attack, want[1].attack, want[2].attack)
	}
	for _, chunk := range []int{256, 1024, 4096, 16384} {
		cfg := cfg
		cfg.ChunkSize = chunk
		got, stats := streamVerdicts(t, capture, cfg)
		compareToBatch(t, got, want)
		if stats.Frames != 3 || stats.Dropped != 0 || stats.DecodeErrors != 0 {
			t.Errorf("chunk %d: stats %+v, want 3 clean frames", chunk, stats)
		}
		if stats.Samples != int64(len(capture)) {
			t.Errorf("chunk %d: ingested %d samples, want %d", chunk, stats.Samples, len(capture))
		}
	}
}

// TestVerdictLatenciesPopulated checks the per-stage latency fields carry
// plausible (positive) timings.
func TestVerdictLatenciesPopulated(t *testing.T) {
	authentic, _ := testFrames(t, []byte("lat"))
	capture, err := BuildCapture(rand.New(rand.NewSource(3)), 1e-3, 700, authentic)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := streamVerdicts(t, capture, testConfig(t))
	if len(got) != 1 {
		t.Fatalf("got %d verdicts, want 1", len(got))
	}
	v := got[0]
	if v.ScanNS <= 0 || v.DecodeNS <= 0 || v.DetectNS <= 0 || v.QueueNS < 0 {
		t.Errorf("latencies scan=%d queue=%d decode=%d detect=%d, want positive stages",
			v.ScanNS, v.QueueNS, v.DecodeNS, v.DetectNS)
	}
	if v.SyncPeak < 0.3 || v.SyncPeak > 1.001 {
		t.Errorf("sync peak %v outside (0.3, 1]", v.SyncPeak)
	}
}

// TestTruncatedFinalFrame: a stream that ends mid-frame must not produce
// a phantom decision — the partial frame surfaces as an Err verdict, like
// the batch receiver's decode failure.
func TestTruncatedFinalFrame(t *testing.T) {
	authentic, _ := testFrames(t, []byte("truncated"))
	capture, err := BuildCapture(rand.New(rand.NewSource(11)), 1e-3, 700, authentic)
	if err != nil {
		t.Fatal(err)
	}
	cut := capture[:700+len(authentic)/2] // chop inside the frame
	got, stats := streamVerdicts(t, cut, testConfig(t))
	if len(got) != 1 {
		t.Fatalf("got %d verdicts, want 1", len(got))
	}
	if got[0].Err == "" {
		t.Errorf("truncated frame decoded cleanly: %+v", got[0])
	}
	if stats.DecodeErrors != 1 {
		t.Errorf("stats.DecodeErrors = %d, want 1", stats.DecodeErrors)
	}
}

// TestBuildCaptureDeterministic: same seed → same capture → same verdicts.
func TestBuildCaptureDeterministic(t *testing.T) {
	authentic, emulated := testFrames(t, []byte("det"))
	run := func() []Verdict {
		capture, err := BuildCapture(rand.New(rand.NewSource(42)), 1e-3, 800, authentic, emulated)
		if err != nil {
			t.Fatal(err)
		}
		var got []Verdict
		if _, err := Process(context.Background(), testConfig(t), NewSliceSource(capture), func(v Verdict) {
			got = append(got, v)
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("runs found %d and %d frames, want 2", len(a), len(b))
	}
	for i := range a {
		if a[i].Offset != b[i].Offset || a[i].DistanceSquared != b[i].DistanceSquared ||
			a[i].Attack != b[i].Attack {
			t.Errorf("frame %d: runs diverge: %+v vs %+v", i, a[i], b[i])
		}
	}
	if !a[1].Attack || a[0].Attack {
		t.Errorf("verdicts [%v %v], want [false true]", a[0].Attack, a[1].Attack)
	}
}

// TestBuildCaptureValidation covers the synthetic-source guard rails.
func TestBuildCaptureValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := BuildCapture(nil, 1e-3, 10); err == nil {
		t.Error("accepted nil rng")
	}
	if _, err := BuildCapture(rng, 0, 10); err == nil {
		t.Error("accepted zero noise floor")
	}
	if _, err := BuildCapture(rng, 1e-3, -1); err == nil {
		t.Error("accepted negative gap")
	}
	capture, err := BuildCapture(rng, 1e-3, 5, make([]complex128, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(capture) != 13 {
		t.Errorf("capture length %d, want 13", len(capture))
	}
	for _, s := range capture[:5] {
		if math.Abs(real(s)) > 1e-2 || math.Abs(imag(s)) > 1e-2 {
			t.Errorf("gap sample %v exceeds the noise floor", s)
		}
	}
}

// TestConfigValidation covers Config guard rails.
func TestConfigValidation(t *testing.T) {
	zb := []*phy.Pipeline{zigbeePipeline(t)}
	for _, cfg := range []Config{
		{ChunkSize: -1, Pipelines: zb},
		{QueueDepth: -1, Pipelines: zb},
		{MaxPending: -1, Pipelines: zb},
		{Shards: -1, Pipelines: zb},
		{}, // no pipelines
	} {
		if e, err := NewEngine(cfg); err == nil {
			e.Close()
			t.Errorf("NewEngine(%+v) accepted invalid config", cfg)
		}
	}
}

// TestNonFiniteSampleDoesNotHideFrame pins that one NaN sample in the
// noise before an emulated frame does not hide the frame from the
// defense: the sync screen once carried the NaN in its window-energy
// recurrence, and the stream then emitted no verdict at hideseekd's
// default chunk size. Batch and stream must both flag the frame.
func TestNonFiniteSampleDoesNotHideFrame(t *testing.T) {
	_, emulated := testFrames(t, []byte("nan-frame"))
	const lead = 3500
	clean, err := BuildCapture(rand.New(rand.NewSource(8)), 1e-3, lead, emulated)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	for _, gap := range []int{100, 1000, 3000} {
		capture := append([]complex128(nil), clean...)
		capture[lead-gap] = complex(math.NaN(), 0)
		var flagged [][]Verdict
		for _, chunk := range []int{256, 4096, 16384} {
			cfg := cfg
			cfg.ChunkSize = chunk
			got, _ := streamVerdicts(t, capture, cfg)
			if len(got) != 1 || got[0].Offset != lead || !got[0].Attack {
				t.Errorf("NaN %d before the frame, chunk %d: %d verdicts, want one flagged frame at %d", gap, chunk, len(got), lead)
				continue
			}
			flagged = append(flagged, got)
		}
		want := batchVerdicts(t, capture)
		for _, got := range flagged {
			compareToBatch(t, got, want)
		}
	}
}
