package zigbee

import (
	"bytes"
	"math/rand"
	"testing"
)

func addAWGN(rng *rand.Rand, w []complex128, sigma float64) []complex128 {
	out := make([]complex128, len(w))
	for i, v := range w {
		out[i] = v + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return out
}

func TestNewReceiverDefaultsAndValidation(t *testing.T) {
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rx.cfg.Mode != HardThreshold || rx.cfg.HammingThreshold != DefaultHammingThreshold {
		t.Errorf("defaults not applied: %+v", rx.cfg)
	}
	if _, err := NewReceiver(ReceiverConfig{Mode: 99}); err == nil {
		t.Error("accepted unknown mode")
	}
	if _, err := NewReceiver(ReceiverConfig{HammingThreshold: 40}); err == nil {
		t.Error("accepted threshold > 32")
	}
	if _, err := NewReceiver(ReceiverConfig{SyncThreshold: 2}); err == nil {
		t.Error("accepted sync threshold > 1")
	}
}

// TestEdgeSyncThreshold pins the tools' ZigBee operating point. The
// frame-path benchmark (framebench/zigbee.go, daemonPipeline) builds
// hideseekd's pipeline with its own 0.3 literal, so the constant must
// keep that value for the benchmark to replay the daemon exactly.
func TestEdgeSyncThreshold(t *testing.T) {
	if EdgeSyncThreshold != 0.3 {
		t.Fatalf("EdgeSyncThreshold = %v, want 0.3 (framebench's daemon pipeline)", EdgeSyncThreshold)
	}
}

func TestTransmitReceiveCleanChannel(t *testing.T) {
	tx := NewTransmitter()
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	psdu := []byte("hello zigbee")
	wave, err := tx.TransmitPSDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rx.Receive(wave)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.PSDU, psdu) {
		t.Errorf("PSDU = %q, want %q", rec.PSDU, psdu)
	}
	if rec.StartSample != 0 {
		t.Errorf("StartSample = %d, want 0", rec.StartSample)
	}
	if rec.SyncPeak < 0.99 {
		t.Errorf("SyncPeak = %g", rec.SyncPeak)
	}
	if rec.SymbolErrors != 0 {
		t.Errorf("SymbolErrors = %d", rec.SymbolErrors)
	}
	wantChips := (PreambleBytes + 2 + len(psdu)) * SymbolsPerByte * ChipsPerSymbol
	if len(rec.SoftChips) != wantChips {
		t.Errorf("SoftChips length = %d, want %d", len(rec.SoftChips), wantChips)
	}
}

func TestReceiveWithLeadingNoiseAndOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tx := NewTransmitter()
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	psdu := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	wave, err := tx.TransmitPSDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	offset := 137
	padded := make([]complex128, offset+len(wave)+50)
	for i := 0; i < offset; i++ {
		padded[i] = complex(rng.NormFloat64()*0.02, rng.NormFloat64()*0.02)
	}
	copy(padded[offset:], wave)
	rec, err := rx.Receive(padded)
	if err != nil {
		t.Fatal(err)
	}
	if rec.StartSample != offset {
		t.Errorf("StartSample = %d, want %d", rec.StartSample, offset)
	}
	if !bytes.Equal(rec.PSDU, psdu) {
		t.Errorf("PSDU = %x, want %x", rec.PSDU, psdu)
	}
}

func TestReceiveUnderModerateNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tx := NewTransmitter()
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	frame := &MACFrame{Type: FrameData, Seq: 7, PANID: 1, Dst: 2, Src: 3, Payload: []byte("00042")}
	wave, err := tx.TransmitFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Waveform power ≈ 1; sigma 0.21 per axis ⇒ SNR ≈ 10.5 dB. DSSS has
	// ~15 dB of processing gain, so decoding must succeed.
	ok := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		noisy := addAWGN(rng, wave, 0.21)
		rec, err := rx.Receive(noisy)
		if err != nil {
			continue
		}
		got, err := DecodeMACFrame(rec.PSDU)
		if err == nil && bytes.Equal(got.Payload, frame.Payload) {
			ok++
		}
	}
	if ok < trials*9/10 {
		t.Errorf("decoded %d/%d at 10.5 dB SNR", ok, trials)
	}
}

func TestReceiveSoftModeOutperformsHardAtLowSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tx := NewTransmitter()
	hard, err := NewReceiver(ReceiverConfig{Mode: HardThreshold, SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	soft, err := NewReceiver(ReceiverConfig{Mode: SoftCorrelation, SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	psdu := []byte("0005500056")
	wave, err := tx.TransmitPSDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 30
	sigma := 0.42 // ≈ 4.5 dB SNR: hard-threshold despreading struggles here
	hardOK, softOK := 0, 0
	for i := 0; i < trials; i++ {
		noisy := addAWGN(rng, wave, sigma)
		if rec, err := hard.Receive(noisy); err == nil && bytes.Equal(rec.PSDU, psdu) {
			hardOK++
		}
		if rec, err := soft.Receive(noisy); err == nil && bytes.Equal(rec.PSDU, psdu) {
			softOK++
		}
	}
	if softOK < hardOK {
		t.Errorf("soft receiver (%d/%d) worse than hard (%d/%d)", softOK, trials, hardOK, trials)
	}
	if softOK < trials/2 {
		t.Errorf("soft receiver too weak: %d/%d", softOK, trials)
	}
}

func TestReceiveRejectsPureNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	noise := make([]complex128, 4000)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if _, err := rx.Receive(noise); err == nil {
		t.Error("decoded a frame from pure noise")
	}
}

func TestReceiveShortWaveform(t *testing.T) {
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Receive(make([]complex128, 10)); err == nil {
		t.Error("accepted waveform shorter than the sync reference")
	}
}

func TestReceiveTruncatedFrame(t *testing.T) {
	tx := NewTransmitter()
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wave, err := tx.TransmitPSDU([]byte("truncate me please"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Receive(wave[:len(wave)-200]); err == nil {
		t.Error("decoded a frame from a truncated waveform")
	}
}
