package phy_test

import (
	"math/rand"
	"testing"

	"hideseek/internal/lora"
	"hideseek/internal/phy"
	_ "hideseek/internal/phy/loraphy"
	_ "hideseek/internal/phy/zigbeephy"
	"hideseek/internal/zigbee"
)

// transmitters modulates a payload for every registered protocol, so
// the contract checks below can decode a real frame through each
// adapter. A protocol registered without an entry here fails the test.
var transmitters = map[string]func([]byte) ([]complex128, error){
	"zigbee": zigbee.NewTransmitter().TransmitPSDU,
	"lora":   lora.NewTransmitter().TransmitPayload,
}

// contractFrame is one protocol's pipeline together with a decoded
// reception from its own receiver.
type contractFrame struct {
	pipe    *phy.Pipeline
	rx      phy.Receiver
	capture []complex128
	start   int
	peak    float64
	rec     phy.Reception
}

func buildContractFrame(t *testing.T, name string) *contractFrame {
	t.Helper()
	tx, ok := transmitters[name]
	if !ok {
		t.Fatalf("%s: no transmitter for the adapter contract test", name)
	}
	wave, err := tx([]byte("adapter-contract"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	capture := make([]complex128, 0, 500+len(wave)+500)
	noise := func(n int) {
		for i := 0; i < n; i++ {
			capture = append(capture, complex(rng.NormFloat64()*1e-3, rng.NormFloat64()*1e-3))
		}
	}
	noise(500)
	capture = append(capture, wave...)
	noise(500)

	p, err := phy.Build(name, phy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rx := p.Receiver.Clone()
	start, peak, err := rx.SynchronizeFirst(capture)
	if err != nil {
		t.Fatalf("%s: sync: %v", name, err)
	}
	if _, err := rx.FrameSpan(capture, start); err != nil {
		t.Fatalf("%s: frame span: %v", name, err)
	}
	rec, err := rx.DecodeAt(capture, start, peak)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if string(rec.Payload()) != "adapter-contract" {
		t.Fatalf("%s: payload %q", name, rec.Payload())
	}
	return &contractFrame{pipe: p, rx: rx, capture: capture, start: start, peak: peak, rec: rec}
}

// contractFrames builds one decoded frame per registered protocol.
func contractFrames(t *testing.T) ([]string, map[string]*contractFrame) {
	t.Helper()
	names := phy.Protocols()
	if len(names) < 2 {
		t.Fatalf("registered protocols %v, want zigbee and lora", names)
	}
	frames := map[string]*contractFrame{}
	for _, name := range names {
		frames[name] = buildContractFrame(t, name)
	}
	return names, frames
}

// TestAdapterContract checks every registered adapter's re-thresholded
// receiver clones (degraded sync), the optional detector capability the
// streaming tier relies on (online calibration), and that a detector
// refuses another protocol's reception.
func TestAdapterContract(t *testing.T) {
	names, frames := contractFrames(t)
	for _, name := range names {
		f := frames[name]

		if rx, err := f.pipe.Receiver.CloneWithSyncThreshold(0.75); err != nil {
			t.Errorf("%s: CloneWithSyncThreshold: %v", name, err)
		} else if got := rx.SyncThreshold(); got != 0.75 {
			t.Errorf("%s: re-thresholded receiver reports sync threshold %v, want 0.75", name, got)
		}
		if got := f.pipe.Receiver.SyncThreshold(); got == 0.75 {
			t.Errorf("%s: re-thresholding changed the prototype's sync threshold", name)
		}

		dt, ok := f.pipe.Detector.(phy.DetectTuner)
		if !ok {
			t.Errorf("%s: detector %T is not a phy.DetectTuner", name, f.pipe.Detector)
		} else {
			base := dt.DetectThreshold()
			thr := base / 2
			det, err := dt.CloneWithDetectThreshold(thr)
			if err != nil {
				t.Errorf("%s: CloneWithDetectThreshold(%v): %v", name, thr, err)
			} else if tt, ok := det.(phy.DetectTuner); !ok {
				t.Errorf("%s: re-thresholded detector %T is not a phy.DetectTuner", name, det)
			} else if got := tt.DetectThreshold(); got != thr {
				t.Errorf("%s: re-thresholded detector reports %v, want %v", name, got, thr)
			}
			if got := dt.DetectThreshold(); got != base {
				t.Errorf("%s: re-thresholding moved the shared detector's threshold %v -> %v", name, base, got)
			}
		}

		if _, err := f.pipe.Detector.Analyze(f.rec); err != nil {
			t.Errorf("%s: Analyze own reception: %v", name, err)
		}
		for _, other := range names {
			if other == name {
				continue
			}
			if _, err := f.pipe.Detector.Analyze(frames[other].rec); err == nil {
				t.Errorf("%s: Analyze accepted a %s reception", name, other)
			}
		}
	}
}

// TestAdapterZeroAllocs checks that steady-state DecodeAt + Analyze
// through each adapter allocates nothing on top of the native decode.
func TestAdapterZeroAllocs(t *testing.T) {
	names, frames := contractFrames(t)
	for _, name := range names {
		f := frames[name]
		allocs := testing.AllocsPerRun(20, func() {
			rec, err := f.rx.DecodeAt(f.capture, f.start, f.peak)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.pipe.Detector.Analyze(rec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: DecodeAt + Analyze through the adapter allocates %v times per op, want 0", name, allocs)
		}
	}
}
