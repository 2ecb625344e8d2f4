package emulation

import (
	"bytes"
	"math"
	"testing"

	"hideseek/internal/wifi"
	"hideseek/internal/zigbee"
)

// observeFrame builds the authentic ZigBee waveform the attacker records.
func observeFrame(t *testing.T, payload []byte) []complex128 {
	t.Helper()
	tx := zigbee.NewTransmitter()
	wave, err := tx.TransmitPSDU(payload)
	if err != nil {
		t.Fatal(err)
	}
	return wave
}

func TestNewEmulatorValidation(t *testing.T) {
	if _, err := NewEmulator(AttackConfig{KeptSubcarriers: -1}); err == nil {
		t.Error("accepted negative kept subcarriers")
	}
	if _, err := NewEmulator(AttackConfig{KeptSubcarriers: 100}); err == nil {
		t.Error("accepted too many subcarriers")
	}
	if _, err := NewEmulator(AttackConfig{SubcarrierIndices: []int{64}}); err == nil {
		t.Error("accepted out-of-range bin")
	}
	if _, err := NewEmulator(AttackConfig{QAMOrder: 5}); err == nil {
		t.Error("accepted bad QAM order")
	}
	if _, err := NewEmulator(AttackConfig{CoarseThreshold: -2}); err == nil {
		t.Error("accepted negative coarse threshold")
	}
	if _, err := NewEmulator(AttackConfig{Alpha: AlphaGrid{Min: 5, Max: 1, Steps: 10}}); err == nil {
		t.Error("accepted inverted alpha grid")
	}
}

func TestInterpolationConstant(t *testing.T) {
	if Interpolation != 5 {
		t.Errorf("Interpolation = %d, want 5", Interpolation)
	}
	if CarrierOffsetBins != -16 {
		t.Errorf("CarrierOffsetBins = %d, want −16", CarrierOffsetBins)
	}
}

func TestEmulateStructure(t *testing.T) {
	obs := observeFrame(t, []byte("00000"))
	em, err := NewEmulator(AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Emulate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSegments*wifi.SymbolSamples != len(res.Emulated20M) {
		t.Errorf("segments %d × 80 ≠ %d samples", res.NumSegments, len(res.Emulated20M))
	}
	if len(res.Emulated4M)*Interpolation != len(res.Emulated20M) {
		t.Errorf("decimated length %d inconsistent", len(res.Emulated4M))
	}
	if len(res.Bins) != DefaultKeptSubcarriers {
		t.Errorf("kept %d bins", len(res.Bins))
	}
	if len(res.Alphas) != res.NumSegments || len(res.QAMPoints) != res.NumSegments {
		t.Errorf("per-segment metadata sizes wrong: %d alphas, %d QAM sets",
			len(res.Alphas), len(res.QAMPoints))
	}
	// Global α: all segments share one value.
	for _, a := range res.Alphas {
		if a != res.Alphas[0] {
			t.Errorf("global-alpha run produced varying alphas")
			break
		}
	}
	if res.QuantError < 0 {
		t.Errorf("negative quantization error %g", res.QuantError)
	}
	if _, err := em.Emulate(nil); err == nil {
		t.Error("accepted empty observation")
	}
}

func TestEmulateSelectsInBandSubcarriers(t *testing.T) {
	// A baseband ZigBee signal concentrates in |f| ≲ 1 MHz, so the two-step
	// estimator must pick exactly the DC±3 neighborhood.
	obs := observeFrame(t, []byte("0123456789"))
	em, err := NewEmulator(AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Emulate(obs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{61: true, 62: true, 63: true, 0: true, 1: true, 2: true, 3: true}
	for _, k := range res.Bins {
		if !want[k] {
			t.Errorf("selected out-of-band bin %d (signed %d)", k, signedBin(k))
		}
	}
}

func TestEmulateEveryCyclicPrefixIsValid(t *testing.T) {
	obs := observeFrame(t, []byte{0x42})
	em, err := NewEmulator(AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Emulate(obs)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < res.NumSegments; s++ {
		seg := res.Emulated20M[s*wifi.SymbolSamples : (s+1)*wifi.SymbolSamples]
		corr, err := wifi.VerifyCyclicPrefix(seg)
		if err != nil {
			t.Fatal(err)
		}
		if corr < 0.999999 {
			t.Fatalf("segment %d CP correlation %g", s, corr)
		}
	}
}

func TestEmulateTailFidelity(t *testing.T) {
	obs := observeFrame(t, []byte("00000"))
	em, err := NewEmulator(AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Emulate(obs)
	if err != nil {
		t.Fatal(err)
	}
	nmse, err := res.TailNMSE()
	if err != nil {
		t.Fatal(err)
	}
	// The 3.2 µs tails must match well: subcarrier truncation plus 64-QAM
	// quantization costs a few percent, not tens.
	if nmse > 0.12 {
		t.Errorf("tail NMSE = %g, emulation too lossy", nmse)
	}
	if nmse < 1e-6 {
		t.Errorf("tail NMSE = %g — suspiciously perfect; quantization missing?", nmse)
	}
}

func TestSkipQuantizationIsStrictlyBetter(t *testing.T) {
	obs := observeFrame(t, []byte("00000"))
	emQ, err := NewEmulator(AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	emNoQ, err := NewEmulator(AttackConfig{SkipQuantization: true})
	if err != nil {
		t.Fatal(err)
	}
	resQ, err := emQ.Emulate(obs)
	if err != nil {
		t.Fatal(err)
	}
	resNoQ, err := emNoQ.Emulate(obs)
	if err != nil {
		t.Fatal(err)
	}
	nmseQ, err := resQ.TailNMSE()
	if err != nil {
		t.Fatal(err)
	}
	nmseNoQ, err := resNoQ.TailNMSE()
	if err != nil {
		t.Fatal(err)
	}
	if nmseNoQ >= nmseQ {
		t.Errorf("unquantized NMSE %g not better than quantized %g", nmseNoQ, nmseQ)
	}
	if len(resNoQ.QAMPoints) != 0 {
		t.Error("SkipQuantization still recorded QAM points")
	}
}

func TestPerSegmentAlphaNotWorseThanGlobal(t *testing.T) {
	obs := observeFrame(t, []byte("abc"))
	global, err := NewEmulator(AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	perSeg, err := NewEmulator(AttackConfig{PerSegmentAlpha: true})
	if err != nil {
		t.Fatal(err)
	}
	resG, err := global.Emulate(obs)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := perSeg.Emulate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if resP.QuantError > resG.QuantError*1.0001 {
		t.Errorf("per-segment α error %g worse than global %g", resP.QuantError, resG.QuantError)
	}
}

func TestOptimizeAlpha(t *testing.T) {
	c, err := wifi.NewConstellation(wifi.QAM64)
	if err != nil {
		t.Fatal(err)
	}
	// Points exactly on a 2.0-scaled grid: the optimum must land near 2
	// with ~zero error.
	pts := []complex128{complex(2, 2), complex(6, -10), complex(-14, 2), complex(10, 6)}
	alpha, e, err := OptimizeAlpha(c, pts, AlphaGrid{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alpha-2) > 0.05 {
		t.Errorf("alpha = %g, want ≈ 2", alpha)
	}
	if e > 0.05 {
		t.Errorf("residual error = %g", e)
	}
	if _, _, err := OptimizeAlpha(c, nil, AlphaGrid{}); err == nil {
		t.Error("accepted empty point set")
	}
}

func TestOptimizeAlphaIsGridOptimal(t *testing.T) {
	c, err := wifi.NewConstellation(wifi.QAM64)
	if err != nil {
		t.Fatal(err)
	}
	pts := []complex128{complex(3.7, -1.1), complex(-8.2, 5.5), complex(0.4, 12.0)}
	grid := AlphaGrid{Min: 0.5, Max: 10, Steps: 100}
	alpha, bestErr, err := OptimizeAlpha(c, pts, grid)
	if err != nil {
		t.Fatal(err)
	}
	// The pruned search returns exactly what the exhaustive one does.
	if wantAlpha, wantErr := exhaustiveAlpha(c, pts, grid); math.Float64bits(alpha) != math.Float64bits(wantAlpha) || math.Float64bits(bestErr) != math.Float64bits(wantErr) {
		t.Fatalf("OptimizeAlpha = (%v, %v), exhaustive = (%v, %v)", alpha, bestErr, wantAlpha, wantErr)
	}
	// No grid point may beat the returned optimum.
	step := (grid.Max - grid.Min) / float64(grid.Steps-1)
	for i := 0; i < grid.Steps; i++ {
		a := grid.Min + float64(i)*step
		var sum float64
		for _, v := range pts {
			_, e := c.Quantize(v, a)
			sum += e
		}
		if sum < bestErr {
			t.Fatalf("grid α=%g has error %g < returned %g (α=%g)", a, sum, bestErr, alpha)
		}
	}
}

func TestEmulatedWaveformDecodesAtZigBeeReceiver(t *testing.T) {
	// The headline result (Sec. V-B): the emulated waveform passes ZigBee
	// detection and decoding despite the CP corruption and quantization.
	payload := []byte("00042")
	obs := observeFrame(t, payload)
	em, err := NewEmulator(AttackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Emulate(obs)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rx.Receive(res.Emulated4M)
	if err != nil {
		t.Fatalf("emulated waveform rejected: %v", err)
	}
	if !bytes.Equal(rec.PSDU, payload) {
		t.Fatalf("decoded %q, want %q", rec.PSDU, payload)
	}
	// Chip-level footprint (Fig. 7): distances concentrated in 1..10,
	// and NOT all zero (the footprint must exist for the defense to work).
	var zero, within, beyond int
	for _, r := range rec.Results {
		switch {
		case r.Distance == 0:
			zero++
		case r.Distance <= zigbee.DefaultHammingThreshold:
			within++
		default:
			beyond++
		}
	}
	if within == 0 {
		t.Error("no chip errors at all — emulation footprint missing")
	}
	if beyond > 0 {
		t.Errorf("%d symbols beyond the Hamming threshold", beyond)
	}
}

func TestAuthenticWaveformHasZeroChipErrors(t *testing.T) {
	payload := []byte("00000")
	obs := observeFrame(t, payload)
	rx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rx.Receive(obs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rec.Results {
		if r.Distance != 0 {
			t.Fatalf("authentic symbol %d has distance %d", i, r.Distance)
		}
	}
}
