package zigbee

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// scanCapture embeds one frame in a low noise floor with leading and
// trailing pad, returning the capture and the frame's true start.
func scanCapture(t *testing.T, psdu []byte, lead, tail int) ([]complex128, int) {
	t.Helper()
	wave, err := NewTransmitter().TransmitPSDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	capture := make([]complex128, 0, lead+len(wave)+tail)
	noise := func(n int) {
		for i := 0; i < n; i++ {
			capture = append(capture, complex(rng.NormFloat64()*1e-3, rng.NormFloat64()*1e-3))
		}
	}
	noise(lead)
	capture = append(capture, wave...)
	noise(tail)
	return capture, lead
}

func TestFrameSpanMatchesReceiveAll(t *testing.T) {
	clean, _ := scanCapture(t, []byte("span-test"), 500, 500)
	// A slow in-band phase wobble on the frame inflates the preamble
	// residual the way emulation distortion does, so the out-of-band SNR
	// estimate (13.7 dB) exceeds the residual one (11.5 dB). A receiver
	// that still folded the out-of-band estimate into SNREstimateDB would
	// report a different value for the tight slice than for the capture.
	wobbled, lead := scanCapture(t, []byte("span-test"), 500, 500)
	for i := lead; i < len(wobbled)-500; i++ {
		wobbled[i] *= cmplx.Rect(1, 0.5*math.Sin(2*math.Pi*float64(i-lead)/1000))
	}
	t.Run("clean", func(t *testing.T) { checkFrameSpan(t, clean) })
	t.Run("phase-wobbled", func(t *testing.T) { checkFrameSpan(t, wobbled) })
}

// checkFrameSpan checks FrameSpan and DecodeAt on capture's one frame
// against ReceiveAll's decode of the whole capture.
func checkFrameSpan(t *testing.T, capture []complex128) {
	rx, err := NewReceiver(ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	start, peak, err := rx.SynchronizeFirst(capture)
	if err != nil {
		t.Fatal(err)
	}
	span, err := rx.FrameSpan(capture, start)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rx.ReceiveAll(capture, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("ReceiveAll: %d frames, err %v", len(recs), err)
	}
	// ReceiveAll receptions are scratch-backed; snapshot before the
	// DecodeAt below reuses the receiver's arena.
	batch := recs[0].Copy()
	// ReceiveAll advances past a frame by len(SoftChips)/2·SamplesPerPulse;
	// FrameSpan must report exactly that.
	want := len(batch.SoftChips) / 2 * SamplesPerPulse
	if span != want {
		t.Errorf("FrameSpan %d, want ReceiveAll advance %d", span, want)
	}
	if span > MaxFrameSamples {
		t.Errorf("span %d exceeds MaxFrameSamples %d", span, MaxFrameSamples)
	}

	// DecodeAt on the tight frame slice must reproduce the batch chips.
	slice := capture[start : start+span+QOffsetSamples]
	rec, err := rx.DecodeAt(slice, 0, peak)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.PSDU) != "span-test" {
		t.Errorf("DecodeAt PSDU %q, want %q", rec.PSDU, "span-test")
	}
	if rec.SyncPeak != peak {
		t.Errorf("DecodeAt sync peak %v, want recorded %v", rec.SyncPeak, peak)
	}
	// Every field DecodeAt fills matches the batch decode bit for bit,
	// SNREstimateDB included: it reads only the SHR, so the tight slice
	// cannot move it.
	sameBits(t, "SoftChips", rec.SoftChips, batch.SoftChips)
	sameBits(t, "DiscriminatorChips", rec.DiscriminatorChips, batch.DiscriminatorChips)
	sameBits(t, "PhaseEstimate", []float64{rec.PhaseEstimate}, []float64{batch.PhaseEstimate})
	sameBits(t, "NoisePowerEstimate", []float64{rec.NoisePowerEstimate}, []float64{batch.NoisePowerEstimate})
	sameBits(t, "SNREstimateDB", []float64{rec.SNREstimateDB}, []float64{batch.SNREstimateDB})
	if len(rec.Results) != len(batch.Results) {
		t.Fatalf("%d despread results, batch %d", len(rec.Results), len(batch.Results))
	}
	for i := range rec.Results {
		if rec.Results[i] != batch.Results[i] {
			t.Fatalf("result %d: %+v, batch %+v", i, rec.Results[i], batch.Results[i])
		}
	}
	if rec.SymbolErrors != batch.SymbolErrors {
		t.Errorf("SymbolErrors %d, batch %d", rec.SymbolErrors, batch.SymbolErrors)
	}
	// The taps no stream verdict reads are the batch paths' alone.
	if rec.PeakChips != nil || rec.RecoveredChips != nil {
		t.Error("DecodeAt filled PeakChips or RecoveredChips")
	}
	if len(batch.PeakChips) != len(batch.SoftChips) || batch.RecoveredChips == nil ||
		len(batch.RecoveredChips.Soft) != len(batch.SoftChips) {
		t.Error("ReceiveAll did not fill PeakChips and RecoveredChips")
	}
}

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, batch %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v, batch %v", name, i, got[i], want[i])
		}
	}
}

func TestFrameSpanErrors(t *testing.T) {
	rx, err := NewReceiver(ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	capture, start := scanCapture(t, []byte("x"), 100, 100)
	if _, err := rx.FrameSpan(capture, -1); err == nil {
		t.Error("accepted negative start")
	}
	if _, err := rx.FrameSpan(capture, len(capture)-10); err == nil {
		t.Error("accepted start past the end")
	}
	// Header truncated: not enough samples past start.
	if _, err := rx.FrameSpan(capture[:start+HeaderSamples/2], start); err == nil {
		t.Error("accepted truncated header")
	}
	if _, err := rx.DecodeAt(capture, len(capture), 1); err == nil {
		t.Error("DecodeAt accepted start past the end")
	}
}

func TestScanConstants(t *testing.T) {
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The sync reference is the modulated SHR minus the Q tail: a whole
	// number of symbols.
	want := (PreambleBytes + 1) * SymbolsPerByte * SamplesPerSymbol
	if rx.SyncRefSamples() != want {
		t.Errorf("SyncRefSamples %d, want %d", rx.SyncRefSamples(), want)
	}
	if HeaderSamples != (PreambleBytes+2)*SymbolsPerByte*SamplesPerSymbol+QOffsetSamples {
		t.Errorf("HeaderSamples = %d", HeaderSamples)
	}
	if MaxFrameSamples <= HeaderSamples {
		t.Errorf("MaxFrameSamples %d not beyond header %d", MaxFrameSamples, HeaderSamples)
	}
}
