package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hideseek/internal/emulation"
	"hideseek/internal/lora"
	"hideseek/internal/obs"
	"hideseek/internal/stream"
	"hideseek/internal/zigbee"
)

// frame is one classified frame: where it starts, what it carried, and
// the defense's statistic and decision.
type frame struct {
	start   int
	payload []byte
	d2      float64
	attack  bool
}

// parityPHY is one victim PHY's transmitter and its batch receive +
// detect path, built with the same knobs the CLI uses.
type parityPHY struct {
	transmit   func(payload []byte) ([]complex128, error)
	sampleRate float64
	// classify receives wave with Receive (batch false: one frame) or
	// ReceiveAll (batch true: every frame) and scores each reception.
	classify func(wave []complex128, realEnv, batch bool) ([]frame, error)
}

var parityPHYs = map[string]parityPHY{
	"zigbee": {
		transmit:   zigbee.NewTransmitter().TransmitPSDU,
		sampleRate: zigbee.SampleRate,
		classify: func(wave []complex128, realEnv, batch bool) ([]frame, error) {
			rx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{SyncThreshold: zigbee.EdgeSyncThreshold})
			if err != nil {
				return nil, err
			}
			det, err := emulation.NewDetector(emulation.DefenseConfig{RemoveMean: realEnv, UseAbsC40: realEnv})
			if err != nil {
				return nil, err
			}
			var recs []*zigbee.Reception
			if batch {
				recs, err = rx.ReceiveAll(wave, 0)
			} else {
				var rec *zigbee.Reception
				rec, err = rx.Receive(wave)
				recs = []*zigbee.Reception{rec}
			}
			if err != nil {
				return nil, err
			}
			var out []frame
			for _, rec := range recs {
				v, err := det.AnalyzeReception(rec)
				if err != nil {
					return nil, err
				}
				out = append(out, frame{rec.StartSample, rec.PSDU, v.DistanceSquared, v.Attack})
			}
			return out, nil
		},
	},
	"lora": {
		transmit:   lora.NewTransmitter().TransmitPayload,
		sampleRate: lora.SampleRate,
		classify: func(wave []complex128, realEnv, batch bool) ([]frame, error) {
			rx, err := lora.NewReceiver(lora.ReceiverConfig{})
			if err != nil {
				return nil, err
			}
			det, err := lora.NewDetector(lora.DetectorConfig{WidePeak: realEnv})
			if err != nil {
				return nil, err
			}
			var recs []*lora.Reception
			if batch {
				recs, err = rx.ReceiveAll(wave, 0)
			} else {
				var rec *lora.Reception
				rec, err = rx.Receive(wave)
				recs = []*lora.Reception{rec}
			}
			if err != nil {
				return nil, err
			}
			var out []frame
			for _, rec := range recs {
				v, err := det.AnalyzeReception(rec)
				if err != nil {
					return nil, err
				}
				out = append(out, frame{rec.StartSample, rec.Payload, v.DistanceSquared, v.Attack})
			}
			return out, nil
		},
	},
}

// TestStreamParity: `-stream` routes both PHYs through the streaming
// engine. Every frame's attack bit and payload must agree with
// single-shot mode (receiver + detector on the same channel-applied
// waveform), and its D² must equal, bit for bit, the batch ReceiveAll
// path's on the same capture. D² is not compared with single-shot: the
// isolated waveform lacks the capture's leading samples, which the
// receiver's estimates read.
func TestStreamParity(t *testing.T) {
	const frames = 2
	for _, proto := range []string{"zigbee", "lora"} {
		for _, realEnv := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/real=%v", proto, realEnv), func(t *testing.T) {
				p := parityPHYs[proto]
				observed, err := p.transmit([]byte("00000"))
				if err != nil {
					t.Fatal(err)
				}
				em, err := emulation.NewEmulator(emulation.AttackConfig{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := em.Emulate(observed)
				if err != nil {
					t.Fatal(err)
				}
				wfs, capture, err := streamCapture(observed, res.Emulated4M, 15, realEnv, p.sampleRate, frames, 9)
				if err != nil {
					t.Fatal(err)
				}
				verdicts, stats, err := streamVerdicts(proto, capture, 0, realEnv)
				if err != nil {
					t.Fatal(err)
				}
				if len(verdicts) != 2*frames || stats.Frames != 2*frames {
					t.Fatalf("stream found %d verdicts / %d frames, want %d", len(verdicts), stats.Frames, 2*frames)
				}
				batch, err := p.classify(capture, realEnv, true)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) != 2*frames {
					t.Fatalf("batch ReceiveAll found %d frames, want %d", len(batch), 2*frames)
				}
				for i, wf := range wfs {
					single, err := p.classify(wf, realEnv, false)
					if err != nil {
						t.Fatalf("single-shot frame %d: %v", i, err)
					}
					s, b, v := single[0], batch[i], verdicts[i]
					if !v.Decided() {
						t.Fatalf("stream frame %d undecided: dropped=%v err=%q", i, v.Dropped, v.Err)
					}
					if v.Attack != s.attack || string(v.PSDU) != string(s.payload) {
						t.Errorf("frame %d: stream (attack=%v payload=%q) vs single-shot (attack=%v payload=%q)",
							i, v.Attack, v.PSDU, s.attack, s.payload)
					}
					if v.Offset != int64(b.start) || math.Float64bits(v.DistanceSquared) != math.Float64bits(b.d2) {
						t.Errorf("frame %d: stream (@%d, D² %v) vs batch (@%d, D² %v)",
							i, v.Offset, v.DistanceSquared, b.start, b.d2)
					}
					if wantAttack := i >= frames; s.attack != wantAttack {
						t.Errorf("frame %d: single-shot attack=%v, want %v", i, s.attack, wantAttack)
					}
				}
			})
		}
	}
}

func TestWriteLatencySummary(t *testing.T) {
	snap := obs.Snapshot{
		Histograms: map[string]obs.HistogramStats{
			"stream.scan_ns":   {Count: 3, P50: 1_500, P95: 2_000},
			"stream.decode_ns": {Count: 3, P50: 250_000, P95: 400_000},
			"stream.detect_ns": {Count: 0}, // empty stage stays silent
		},
	}
	stats := stream.Stats{Frames: 3, Dropped: 1, DecodeErrors: 2}
	var b strings.Builder
	writeLatencySummary(&b, stats, snap)
	out := b.String()

	for _, want := range []string{
		"3 frames", "1 dropped", "2 decode errors",
		"scan", "decode",
		"1.5µs", "250µs", "400µs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "--   detect") {
		t.Errorf("summary reports empty detect stage:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "--") {
			t.Errorf("summary line %q not marked as commentary", line)
		}
	}
}

func TestWriteLatencySummaryNoHistograms(t *testing.T) {
	var b strings.Builder
	writeLatencySummary(&b, stream.Stats{Frames: 1}, obs.Snapshot{})
	if got := strings.Count(b.String(), "\n"); got != 1 {
		t.Fatalf("expected header line only, got %d lines:\n%s", got, b.String())
	}
}

// TestClassifyFileUnknownProtocolListsRegisteredOnce: -in with an
// unknown -proto fails with phy.Build's error, which already names the
// registered protocols; classifyFile must not append the list again.
func TestClassifyFileUnknownProtocolListsRegisteredOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.cf32")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := classifyFile(path, "nope", 0, false)
	if err == nil {
		t.Fatal("-proto nope accepted")
	}
	if n := strings.Count(err.Error(), "registered:"); n != 1 {
		t.Fatalf("error lists the registered protocols %d times, want once: %v", n, err)
	}
}
