package zigbee

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The FFT overlap-save sync path must make the same decisions as the
// direct correlation sweep and report bit-identical values: the contract
// is decision parity (same start indices, same accept/reject outcomes)
// plus ExactAt value recomputation at the decided lag (same peaks,
// bitwise). These tests sweep a corpus of captures — clean, noisy down
// to the sync threshold, offset, multi-frame, truncated, pure noise —
// through paired receivers and require identical results.

// parityReceivers returns an FFT-path and a direct-path receiver with
// the same configuration.
func parityReceivers(t *testing.T, cfg ReceiverConfig) (fft, direct *Receiver) {
	t.Helper()
	fft, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DirectSync = true
	direct, err = NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fft, direct
}

// parityCorpus builds the capture set both paths must agree on: one
// frame at decreasing SNRs (through the regime where sync starts
// failing), a frame behind leading noise, several frames with gaps, a
// truncated frame, and pure noise.
func parityCorpus(t *testing.T) [][]complex128 {
	t.Helper()
	tx := NewTransmitter()
	wave, err := tx.TransmitPSDU([]byte("parity"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	noise := func(n int, sigma float64) []complex128 {
		out := make([]complex128, n)
		for i := range out {
			out[i] = complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
		return out
	}
	var corpus [][]complex128
	// SNR sweep: sigma from clean down past the point sync rejects.
	for _, sigma := range []float64{0, 0.05, 0.15, 0.3, 0.5, 0.8, 1.2, 2.0} {
		corpus = append(corpus, addAWGN(rng, wave, sigma))
	}
	// Leading + trailing noise at a few offsets.
	for _, lead := range []int{1, 97, 640, 1500} {
		cap := append(noise(lead, 0.02), addAWGN(rng, wave, 0.1)...)
		corpus = append(corpus, append(cap, noise(300, 0.02)...))
	}
	// Multi-frame capture with noise-floor gaps.
	multi := noise(700, 0.001)
	for i := 0; i < 3; i++ {
		multi = append(multi, addAWGN(rng, wave, 0.08)...)
		multi = append(multi, noise(500+137*i, 0.001)...)
	}
	corpus = append(corpus, multi)
	// Truncated frame and pure noise.
	corpus = append(corpus, addAWGN(rng, wave[:len(wave)/2], 0.05))
	corpus = append(corpus, noise(4000, 1))
	return corpus
}

// TestSynchronizeParityFFTvsDirect runs the corpus through both sync
// entry points, Receive and SynchronizeFirst, on both paths.
func TestSynchronizeParityFFTvsDirect(t *testing.T) {
	fft, direct := parityReceivers(t, ReceiverConfig{})
	for i, capture := range parityCorpus(t) {
		assertReceiveParity(t, fft, direct, capture, fmt.Sprintf("capture %d", i))

		fStart, fPeak, fErr := fft.SynchronizeFirst(capture)
		dStart, dPeak, dErr := direct.SynchronizeFirst(capture)
		if (fErr == nil) != (dErr == nil) {
			t.Errorf("capture %d: SynchronizeFirst accept mismatch: fft err=%v, direct err=%v", i, fErr, dErr)
			continue
		}
		if fStart != dStart || fPeak != dPeak {
			t.Errorf("capture %d: SynchronizeFirst (%d, %v) fft vs (%d, %v) direct", i, fStart, fPeak, dStart, dPeak)
		}
	}
}

// assertReceiveParity requires Receive on the FFT path to return the
// direct path's error, start, peak bits and PSDU.
func assertReceiveParity(t *testing.T, fft, direct *Receiver, capture []complex128, what string) {
	t.Helper()
	f, fErr := fft.Receive(capture)
	d, dErr := direct.Receive(capture)
	if fmt.Sprint(fErr) != fmt.Sprint(dErr) {
		t.Errorf("%s: Receive err %v (fft) vs %v (direct)", what, fErr, dErr)
	}
	if f.StartSample != d.StartSample {
		t.Errorf("%s: Receive start %d (fft) vs %d (direct)", what, f.StartSample, d.StartSample)
	}
	if f.SyncPeak != d.SyncPeak {
		t.Errorf("%s: Receive peak %v (fft) vs %v (direct), must be bitwise equal", what, f.SyncPeak, d.SyncPeak)
	}
	if string(f.PSDU) != string(d.PSDU) {
		t.Errorf("%s: Receive PSDU %q (fft) vs %q (direct)", what, f.PSDU, d.PSDU)
	}
}

func TestReceiveAllParityFFTvsDirect(t *testing.T) {
	for _, mode := range []DespreadMode{HardThreshold, SoftCorrelation} {
		fft, direct := parityReceivers(t, ReceiverConfig{Mode: mode})
		for i, capture := range parityCorpus(t) {
			fRecs, fErr := fft.ReceiveAll(capture, 0)
			dRecs, dErr := direct.ReceiveAll(capture, 0)
			if (fErr == nil) != (dErr == nil) {
				t.Fatalf("mode %d capture %d: ReceiveAll err mismatch: %v vs %v", mode, i, fErr, dErr)
			}
			if len(fRecs) != len(dRecs) {
				t.Fatalf("mode %d capture %d: %d frames (fft) vs %d (direct)", mode, i, len(fRecs), len(dRecs))
			}
			for j := range fRecs {
				f, d := fRecs[j], dRecs[j]
				if f.StartSample != d.StartSample {
					t.Errorf("mode %d capture %d frame %d: start %d vs %d", mode, i, j, f.StartSample, d.StartSample)
				}
				if f.SyncPeak != d.SyncPeak {
					t.Errorf("mode %d capture %d frame %d: peak %v vs %v, must be bitwise equal", mode, i, j, f.SyncPeak, d.SyncPeak)
				}
				if string(f.PSDU) != string(d.PSDU) {
					t.Errorf("mode %d capture %d frame %d: PSDU %q vs %q", mode, i, j, f.PSDU, d.PSDU)
				}
				if f.PhaseEstimate != d.PhaseEstimate || f.SNREstimateDB != d.SNREstimateDB {
					t.Errorf("mode %d capture %d frame %d: estimates diverge", mode, i, j)
				}
			}
		}
	}
}

// TestSynchronizeParityNearThreshold stresses the decision boundary:
// many noise seeds at the SNR where the sync peak hovers around the
// threshold, where an FFT-vs-direct rounding flip would surface.
func TestSynchronizeParityNearThreshold(t *testing.T) {
	tx := NewTransmitter()
	wave, err := tx.TransmitPSDU([]byte("edge"))
	if err != nil {
		t.Fatal(err)
	}
	fft, direct := parityReceivers(t, ReceiverConfig{})
	accepts := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		capture := addAWGN(rng, wave, 1.05+0.04*float64(seed%10))
		assertReceiveParity(t, fft, direct, capture, fmt.Sprintf("seed %d", seed))
		if _, _, err := fft.SynchronizeFirst(capture); err == nil {
			accepts++
		}
	}
	if accepts == 0 || accepts == 60 {
		t.Errorf("near-threshold sweep accepted %d/60 — not exercising the boundary", accepts)
	}
}

func TestReceiverClone(t *testing.T) {
	tx := NewTransmitter()
	wave, err := tx.TransmitPSDU([]byte("clone"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	capture := addAWGN(rng, wave, 0.1)
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rx.Receive(capture)
	if err != nil {
		t.Fatal(err)
	}

	// Clones decode identically and run concurrently (shared immutable
	// reference + plan, private scratch) — the contract internal/stream
	// workers rely on.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := rx.Clone()
			for iter := 0; iter < 3; iter++ {
				got, err := cl.Receive(capture)
				if err != nil {
					t.Errorf("clone receive: %v", err)
					return
				}
				if got.StartSample != want.StartSample || got.SyncPeak != want.SyncPeak ||
					string(got.PSDU) != string(want.PSDU) {
					t.Errorf("clone diverged: (%d, %v, %q) vs (%d, %v, %q)",
						got.StartSample, got.SyncPeak, got.PSDU,
						want.StartSample, want.SyncPeak, want.PSDU)
					return
				}
			}
		}()
	}
	wg.Wait()

	if rx.Clone().SyncRefSamples() != rx.SyncRefSamples() {
		t.Error("clone sync reference length differs")
	}
}
