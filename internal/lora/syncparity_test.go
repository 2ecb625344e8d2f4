package lora

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hideseek/internal/channel"
)

// The FFT overlap-save sync path must make the same decisions as the
// direct correlation sweep and report bit-identical peaks (see
// dsp.Correlator). These tests run a capture corpus through a default
// receiver and a DirectSync receiver and require identical results.

// addAWGN returns w plus white Gaussian noise at snrDB (unit signal
// power).
func addAWGN(t *testing.T, rng *rand.Rand, w []complex128, snrDB float64) []complex128 {
	t.Helper()
	ch, err := channel.NewAWGN(snrDB, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ch.Apply(w)
}

// parityReceivers returns an FFT-path and a direct-path receiver.
func parityReceivers(t *testing.T) (fft, direct *Receiver) {
	t.Helper()
	fft, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err = NewReceiver(ReceiverConfig{DirectSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return fft, direct
}

// assertReceptionsMatch requires equal offsets, bitwise-equal sync peaks
// and equal payloads.
func assertReceptionsMatch(t *testing.T, tag string, f, d *Reception) {
	t.Helper()
	if f.StartSample != d.StartSample {
		t.Errorf("%s: start %d (fft) vs %d (direct)", tag, f.StartSample, d.StartSample)
	}
	if f.SyncPeak != d.SyncPeak {
		t.Errorf("%s: peak %v (fft) vs %v (direct), must be bitwise equal", tag, f.SyncPeak, d.SyncPeak)
	}
	if !bytes.Equal(f.Payload, d.Payload) {
		t.Errorf("%s: payload %q (fft) vs %q (direct)", tag, f.Payload, d.Payload)
	}
}

func TestReceiveAllParityFFTvsDirect(t *testing.T) {
	fft, direct := parityReceivers(t)
	tx := NewTransmitter()
	wave, err := tx.TransmitPayload([]byte{0x5A})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))

	// One frame at decreasing SNRs, past the point sync rejects, and a
	// multi-frame capture with noise-floor gaps.
	corpus := [][]complex128{wave}
	for _, snrDB := range []float64{7, -1, -9} {
		corpus = append(corpus, addAWGN(t, rng, wave, snrDB))
	}
	var multi []complex128
	payloads := [][]byte{[]byte("one"), []byte("frame two"), {0xFF}}
	for i, p := range payloads {
		multi = append(multi, addAWGN(t, rng, make([]complex128, 300+517*i), 37)...)
		w, err := tx.TransmitPayload(p)
		if err != nil {
			t.Fatal(err)
		}
		multi = append(multi, addAWGN(t, rng, w, 17)...)
	}
	corpus = append(corpus, multi)
	for i, capture := range corpus {
		fRecs, fErr := fft.ReceiveAll(capture, 0)
		dRecs, dErr := direct.ReceiveAll(capture, 0)
		if (fErr == nil) != (dErr == nil) {
			t.Fatalf("capture %d: ReceiveAll err mismatch: %v vs %v", i, fErr, dErr)
		}
		if len(fRecs) != len(dRecs) {
			t.Fatalf("capture %d: %d frames (fft) vs %d (direct)", i, len(fRecs), len(dRecs))
		}
		for j := range fRecs {
			assertReceptionsMatch(t, fmt.Sprintf("capture %d frame %d", i, j), fRecs[j], dRecs[j])
		}
		if i == len(corpus)-1 && len(fRecs) != len(payloads) {
			t.Errorf("multi-frame capture decoded %d frames, want %d", len(fRecs), len(payloads))
		}
	}

	// Near-threshold sweep: noise seeds where the sync peak hovers around
	// the threshold, so an FFT-vs-direct rounding flip would surface.
	const seeds = 12
	accepts := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		capture := addAWGN(t, rng, wave, -3-0.35*float64(seed%10))
		fRec, fErr := fft.Receive(capture)
		dRec, dErr := direct.Receive(capture)
		if (fErr == nil) != (dErr == nil) {
			t.Errorf("seed %d: Receive err mismatch: %v vs %v", seed, fErr, dErr)
		}
		assertReceptionsMatch(t, fmt.Sprintf("seed %d", seed), fRec, dRec)
		if fErr == nil {
			accepts++
		}
	}
	if accepts == 0 || accepts == seeds {
		t.Errorf("near-threshold sweep accepted %d/%d — not exercising the boundary", accepts, seeds)
	}
}
