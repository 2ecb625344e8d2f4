package lora

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"hideseek/internal/channel"
)

// TestChirpExactTone verifies the package's central numerical claim: a
// clean symbol, dechirped against the conjugate base upchirp and
// decimated to chip rate, is an exact DFT tone at its symbol value — the
// frequency wrap lands on a decimated sample boundary, so the FFT peak
// carries ALL the symbol energy.
func TestChirpExactTone(t *testing.T) {
	base := Upchirp(0)
	for _, s := range []int{0, 1, 17, 128, 200, 255} {
		sym := Upchirp(s)
		for m := 0; m < ChipsPerSymbol; m++ {
			got := sym[m*Oversample] * cmplx.Conj(base[m*Oversample])
			want := cmplx.Exp(complex(0, 2*math.Pi*float64(s)*float64(m)/ChipsPerSymbol))
			if cmplx.Abs(got-want) > 1e-9 {
				t.Fatalf("symbol %d chip %d: dechirped %v, want tone %v", s, m, got, want)
			}
		}
	}
}

// TestChirpUnitModulusAndContinuity checks the modulator output is
// constant-envelope and phase-continuous through the frequency wrap.
func TestChirpUnitModulusAndContinuity(t *testing.T) {
	for _, s := range []int{0, 100, 255} {
		sym := Upchirp(s)
		if len(sym) != SymbolSamples {
			t.Fatalf("symbol %d: %d samples, want %d", s, len(sym), SymbolSamples)
		}
		for n, v := range sym {
			if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
				t.Fatalf("symbol %d sample %d: |x| = %v, want 1", s, n, cmplx.Abs(v))
			}
			if n > 0 {
				// Instantaneous frequency stays within ±Bandwidth/2: the
				// sample-to-sample phase step never exceeds π/2·(1+ε).
				dphi := cmplx.Phase(v * cmplx.Conj(sym[n-1]))
				if math.Abs(dphi) > math.Pi/2+1e-9 {
					t.Fatalf("symbol %d sample %d: phase step %v exceeds band limit", s, n, dphi)
				}
			}
		}
	}
}

// TestDownchirpIsConjugate pins the downchirp identity the preamble
// detector relies on.
func TestDownchirpIsConjugate(t *testing.T) {
	up, down := Upchirp(0), Downchirp()
	for n := range up {
		if cmplx.Abs(down[n]-cmplx.Conj(up[n])) > 1e-12 {
			t.Fatalf("sample %d: downchirp %v, want conj(upchirp) %v", n, down[n], cmplx.Conj(up[n]))
		}
	}
}

// TestRoundTripGolden is the modulate → dechirp golden test: payloads of
// every size class, across seeds and an SNR grid, must decode bitwise
// equal through the full Receive pipeline.
func TestRoundTripGolden(t *testing.T) {
	tx := NewTransmitter()
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 2, 16, 63, MaxPayload}
	snrs := []float64{math.Inf(1), 20, 10, 0}
	for _, size := range sizes {
		for _, snr := range snrs {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				payload := make([]byte, size)
				rng.Read(payload)
				wave, err := tx.TransmitPayload(payload)
				if err != nil {
					t.Fatalf("size %d: transmit: %v", size, err)
				}
				if len(wave) != FrameSamples(size) {
					t.Fatalf("size %d: %d samples, want %d", size, len(wave), FrameSamples(size))
				}
				if !math.IsInf(snr, 1) {
					ch, err := channel.NewAWGN(snr, rng)
					if err != nil {
						t.Fatal(err)
					}
					wave = ch.Apply(wave)
				}
				rec, err := rx.Receive(wave)
				if err != nil {
					t.Fatalf("size %d snr %v seed %d: receive: %v", size, snr, seed, err)
				}
				if !bytes.Equal(rec.Payload, payload) {
					t.Fatalf("size %d snr %v seed %d: payload %x, want %x", size, snr, seed, rec.Payload, payload)
				}
				if rec.StartSample != 0 {
					t.Errorf("size %d snr %v seed %d: start %d, want 0", size, snr, seed, rec.StartSample)
				}
				if want := PreambleSymbols + HeaderSymbols + size; len(rec.Concentrations) != want {
					t.Errorf("size %d: %d concentrations, want %d", size, len(rec.Concentrations), want)
				}
			}
		}
	}
}

// TestCleanFrameConcentration pins the noise-free spectral statistics: an
// authentic chirp with no channel puts essentially all dechirped energy
// in the peak bin, so the off-peak ratio is numerically zero — the floor
// the defense threshold sits above.
func TestCleanFrameConcentration(t *testing.T) {
	tx := NewTransmitter()
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wave, err := tx.TransmitPayload([]byte("hide and seek"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rx.Receive(wave)
	if err != nil {
		t.Fatal(err)
	}
	if rec.OffPeakRatio > 1e-9 {
		t.Fatalf("clean off-peak ratio %v, want ≈ 0", rec.OffPeakRatio)
	}
	if rec.SyncPeak < 0.999 {
		t.Fatalf("clean sync peak %v, want ≈ 1", rec.SyncPeak)
	}
}

// TestSynchronizeFirstFindsOffsetFrame embeds a frame after a noise
// prefix and checks the sync refinement lands on the exact start despite
// the upchirp train's partial self-similarity (the first threshold
// crossing can be a whole symbol early; refinement must recover).
func TestSynchronizeFirstFindsOffsetFrame(t *testing.T) {
	tx := NewTransmitter()
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []int{1, 500, SymbolSamples, SymbolSamples + 3, 3 * SymbolSamples} {
		rng := rand.New(rand.NewSource(int64(prefix)))
		wave, err := tx.TransmitPayload([]byte{0xDE, 0xAD, 0xBE, 0xEF})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]complex128, prefix+len(wave)+137)
		for i := range buf {
			buf[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.01
		}
		for i, v := range wave {
			buf[prefix+i] += v
		}
		start, peak, err := rx.SynchronizeFirst(buf)
		if err != nil {
			t.Fatalf("prefix %d: %v", prefix, err)
		}
		if start != prefix {
			t.Fatalf("prefix %d: synchronized at %d", prefix, start)
		}
		if peak < 0.9 {
			t.Errorf("prefix %d: peak %v, want ≈ 1", prefix, peak)
		}
	}
}

// TestReceiveAllMultipleFrames checks the batch scanner's advance rules:
// back-to-back and gap-separated frames all decode, in order, with
// correct absolute start samples.
func TestReceiveAllMultipleFrames(t *testing.T) {
	tx := NewTransmitter()
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("one"), []byte("frame two"), {0xFF}}
	gaps := []int{200, 0, 4096}
	var buf []complex128
	var starts []int
	rng := rand.New(rand.NewSource(7))
	for i, p := range payloads {
		for n := 0; n < gaps[i]; n++ {
			buf = append(buf, complex(rng.NormFloat64(), rng.NormFloat64())*0.01)
		}
		starts = append(starts, len(buf))
		wave, err := tx.TransmitPayload(p)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, wave...)
	}
	recs, err := rx.ReceiveAll(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(payloads) {
		t.Fatalf("decoded %d frames, want %d", len(recs), len(payloads))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Payload, payloads[i]) {
			t.Errorf("frame %d: payload %q, want %q", i, rec.Payload, payloads[i])
		}
		if rec.StartSample != starts[i] {
			t.Errorf("frame %d: start %d, want %d", i, rec.StartSample, starts[i])
		}
	}
}

// TestReceiveReturnsEarliestFrame pins that Receive runs the one
// first-crossing search: on a capture whose later frame correlates
// better, it decodes the earlier frame, at the start and sync peak bits
// of ReceiveAll's first frame.
func TestReceiveReturnsEarliestFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	tx := NewTransmitter()
	first, err := tx.TransmitPayload([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := tx.TransmitPayload([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	capture := make([]complex128, 300)
	capture = append(capture, addAWGN(t, rng, first, 0)...)
	capture = append(capture, make([]complex128, 500)...)
	capture = append(capture, second...)
	capture = append(capture, make([]complex128, 300)...)

	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rx.Receive(capture)
	if err != nil {
		t.Fatal(err)
	}
	all, err := rx.ReceiveAll(capture, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || !(all[1].SyncPeak > all[0].SyncPeak) {
		t.Fatalf("ReceiveAll found %d frames; want two, the later one stronger", len(all))
	}
	if string(rec.Payload) != "first" || rec.StartSample != all[0].StartSample ||
		math.Float64bits(rec.SyncPeak) != math.Float64bits(all[0].SyncPeak) {
		t.Errorf("Receive = (%d, %v, %q), want ReceiveAll's first frame (%d, %v, %q)",
			rec.StartSample, rec.SyncPeak, rec.Payload, all[0].StartSample, all[0].SyncPeak, all[0].Payload)
	}
}

// TestFrameSpanRejectsCorruptHeader checks header validation: a
// corrupted checksum symbol must fail FrameSpan (and therefore make the
// scanner skip the sync point), and a valid header must report the whole
// frame's span.
func TestFrameSpanRejectsCorruptHeader(t *testing.T) {
	tx := NewTransmitter()
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 2, 3, 4, 5}
	wave, err := tx.TransmitPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	span, err := rx.FrameSpan(wave, 0)
	if err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	if span != FrameSamples(len(payload)) {
		t.Fatalf("span %d, want %d", span, FrameSamples(len(payload)))
	}
	// Overwrite the checksum symbol with the wrong complement.
	bad := append([]complex128(nil), wave...)
	wrong := Upchirp((len(payload) ^ HeaderChecksumMask) ^ 1)
	copy(bad[(PreambleSymbols+1)*SymbolSamples:], wrong)
	if _, err := rx.FrameSpan(bad, 0); err == nil {
		t.Fatal("corrupt checksum accepted")
	}
}

// TestCloneIndependence decodes concurrently on clones to shake out
// shared scratch; run with -race.
func TestCloneIndependence(t *testing.T) {
	tx := NewTransmitter()
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wave, err := tx.TransmitPayload([]byte("clone me"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		c := rx.Clone()
		go func() {
			for k := 0; k < 10; k++ {
				rec, err := c.Receive(wave)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(rec.Payload, []byte("clone me")) {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDetectorAuthenticAcrossSNR checks the defense's negative side: at
// link SNRs from clean down to 15 dB the authentic off-peak ratio
// (≈ 1/(1+SNR) per symbol) stays under the default threshold. (Below
// ~13 dB noise alone crosses 0.05 — that regime is the ROC experiment's
// business, not a pass/fail invariant.)
func TestDetectorAuthenticAcrossSNR(t *testing.T) {
	tx := NewTransmitter()
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, snr := range []float64{math.Inf(1), 30, 20, 15} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			payload := make([]byte, 24)
			rng.Read(payload)
			wave, err := tx.TransmitPayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !math.IsInf(snr, 1) {
				ch, err := channel.NewAWGN(snr, rng)
				if err != nil {
					t.Fatal(err)
				}
				wave = ch.Apply(wave)
			}
			rec, err := rx.Receive(wave)
			if err != nil {
				t.Fatalf("snr %v seed %d: %v", snr, seed, err)
			}
			v, err := det.AnalyzeReception(rec)
			if err != nil {
				t.Fatal(err)
			}
			if v.Attack {
				t.Errorf("snr %v seed %d: authentic frame flagged (D² = %v)", snr, seed, v.DistanceSquared)
			}
		}
	}
}

// TestWideConcentrations pins the wide-peak statistic's invariants: the
// peak±1 window can only add energy over the single bin, a clean chirp
// concentrates fully in both, and the wide-peak detector demands the wide
// statistic and defaults to the real-environment threshold.
func TestWideConcentrations(t *testing.T) {
	tx := NewTransmitter()
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wave, err := tx.TransmitPayload([]byte("wide-peak"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rx.Receive(wave)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.WideConcentrations) != len(rec.Concentrations) {
		t.Fatalf("wide/narrow length mismatch: %d vs %d", len(rec.WideConcentrations), len(rec.Concentrations))
	}
	for i, w := range rec.WideConcentrations {
		if w < rec.Concentrations[i] {
			t.Errorf("symbol %d: wide concentration %v below narrow %v", i, w, rec.Concentrations[i])
		}
		if w < 1-1e-9 || w > 1+1e-9 {
			t.Errorf("symbol %d: clean wide concentration %v, want 1", i, w)
		}
	}

	det, err := NewDetector(DetectorConfig{WidePeak: true})
	if err != nil {
		t.Fatal(err)
	}
	if det.Threshold() != DefaultRealEnvThreshold {
		t.Errorf("WidePeak default threshold %v, want %v", det.Threshold(), DefaultRealEnvThreshold)
	}
	v, err := det.AnalyzeReception(rec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack || v.DistanceSquared > 1e-9 {
		t.Errorf("clean frame under wide-peak detector: D² = %v, attack = %v", v.DistanceSquared, v.Attack)
	}
	// A reception without the wide statistic must be rejected, not
	// silently analyzed with the narrow one.
	if _, err := det.AnalyzeReception(&Reception{Concentrations: []float64{1}}); err == nil {
		t.Error("wide-peak detector accepted a reception without wide concentrations")
	}
}
