package zigbee

import (
	"bytes"
	"testing"

	"hideseek/internal/channel"
)

// TestReceiverToleratesCrystalSkew drives the full receiver through a
// waveform resampled at realistic crystal offsets. The clock-recovery loop
// and the 2-sample-per-chip margin must absorb ±40 ppm (the 802.15.4
// tolerance); a wildly off-spec 5000 ppm clock must break the frame.
func TestReceiverToleratesCrystalSkew(t *testing.T) {
	tx := NewTransmitter()
	psdu := []byte("skewed clock")
	wave, err := tx.TransmitPSDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, ppm := range []float64{-40, 40, 100} {
		sro, err := channel.NewSampleRateOffset(ppm)
		if err != nil {
			t.Fatal(err)
		}
		// A real receiver keeps sampling past the burst; give the skewed
		// waveform the same trailing margin.
		skewed := append(sro.Apply(wave), make([]complex128, 8)...)
		rec, err := rx.Receive(skewed)
		if err != nil {
			t.Fatalf("%g ppm: %v", ppm, err)
		}
		if !bytes.Equal(rec.PSDU, psdu) {
			t.Errorf("%g ppm: PSDU mismatch", ppm)
		}
	}
	// Grossly off-spec clock: decode must fail or corrupt.
	sro, err := channel.NewSampleRateOffset(5000)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rx.Receive(sro.Apply(wave))
	if err == nil && bytes.Equal(rec.PSDU, psdu) {
		t.Error("5000 ppm skew decoded cleanly — receiver implausibly tolerant")
	}
}

// TestClockRecoveryTracksSkew verifies the loop's timing estimate actually
// walks with a skewed clock rather than staying pinned at zero.
func TestClockRecoveryTracksSkew(t *testing.T) {
	tx := NewTransmitter()
	wave, err := tx.TransmitPSDU([]byte("0123456789abcdef0123"))
	if err != nil {
		t.Fatal(err)
	}
	sro, err := channel.NewSampleRateOffset(400) // exaggerated for visibility
	if err != nil {
		t.Fatal(err)
	}
	skewed := sro.Apply(wave)
	numChips := (len(skewed) - QOffsetSamples - 4) / SamplesPerPulse * 2
	numChips &^= 1
	rec, err := recoverChips(DefaultClockRecovery(), skewed, numChips)
	if err != nil {
		t.Fatal(err)
	}
	// 400 ppm over len(skewed) samples accumulates ≈ len·4e-4 samples of
	// drift; the final timing estimate must have moved meaningfully from 0.
	finalTau := rec.Timing[len(rec.Timing)-1]
	expected := float64(len(skewed)) * 400e-6
	if finalTau > -expected/3 { // skew shortens the waveform → τ goes negative
		t.Errorf("final timing estimate %g; expected drift toward ≈ −%g", finalTau, expected)
	}
}
