package zigbee

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"hideseek/internal/bits"
	"hideseek/internal/dsp"
)

func randomChips(rng *rand.Rand, n int) []bits.Bit {
	out := make([]bits.Bit, n)
	for i := range out {
		out[i] = bits.Bit(rng.Intn(2))
	}
	return out
}

func TestModulateValidation(t *testing.T) {
	if _, err := Modulate(make([]bits.Bit, 3)); err == nil {
		t.Error("accepted odd chip count")
	}
}

func TestModulateLength(t *testing.T) {
	chips := make([]bits.Bit, 32)
	w, err := Modulate(chips)
	if err != nil {
		t.Fatal(err)
	}
	want := 16*SamplesPerPulse + QOffsetSamples
	if len(w) != want {
		t.Errorf("waveform length = %d, want %d", len(w), want)
	}
	if want != SamplesPerSymbol+QOffsetSamples {
		t.Errorf("numerology broken: one symbol should span %d samples", SamplesPerSymbol)
	}
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		chips := randomChips(rng, 64)
		w, err := Modulate(chips)
		if err != nil {
			t.Fatal(err)
		}
		soft, err := chipsInto(DemodulateInto, w, len(chips))
		if err != nil {
			t.Fatal(err)
		}
		hard := hardChips(soft)
		for i := range chips {
			if hard[i] != chips[i] {
				t.Fatalf("trial %d chip %d flipped (soft=%g)", trial, i, soft[i])
			}
			if math.Abs(math.Abs(soft[i])-1) > 1e-9 {
				t.Fatalf("trial %d chip %d soft magnitude = %g, want 1", trial, i, soft[i])
			}
		}
	}
}

func TestDemodulateValidation(t *testing.T) {
	w, _ := Modulate(make([]bits.Bit, 4))
	if _, err := chipsInto(DemodulateInto, w, 3); err == nil {
		t.Error("accepted odd chip count")
	}
	if _, err := chipsInto(DemodulateInto, w, 0); err == nil {
		t.Error("accepted zero chips")
	}
	if _, err := chipsInto(DemodulateInto, w[:4], 4); err == nil {
		t.Error("accepted short waveform")
	}
}

func TestModulateNearConstantEnvelope(t *testing.T) {
	// Half-sine O-QPSK is MSK-like: away from the ramp-up/down, the envelope
	// magnitude stays near 1 because I² + Q² alternates between offset
	// half-sine lobes.
	rng := rand.New(rand.NewSource(32))
	chips := randomChips(rng, 256)
	w, err := Modulate(chips)
	if err != nil {
		t.Fatal(err)
	}
	for i := SamplesPerPulse; i < len(w)-SamplesPerPulse; i++ {
		mag := cmplx.Abs(w[i])
		if mag < 0.6 || mag > 1.1 {
			t.Fatalf("sample %d envelope = %g", i, mag)
		}
	}
}

func TestModulateSpectrumConcentratedIn2MHz(t *testing.T) {
	// Most (not all — half-sine has sidelobes) of the energy must sit inside
	// |f| ≤ 1 MHz. The residual out-of-band share is exactly what the
	// attack's 7-subcarrier truncation destroys, so pin both sides.
	rng := rand.New(rand.NewSource(33))
	chips := randomChips(rng, 2048)
	w, err := Modulate(chips)
	if err != nil {
		t.Fatal(err)
	}
	n := 4096
	seg := w[:n]
	spec := dsp.FFT(seg)
	var inBand, total float64
	for k, v := range spec {
		p := real(v)*real(v) + imag(v)*imag(v)
		total += p
		f, err := dsp.BinFrequency(k, n, SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(f) <= 1e6 {
			inBand += p
		}
	}
	share := inBand / total
	if share < 0.90 {
		t.Errorf("in-band share = %.3f, too low for a 2 MHz O-QPSK signal", share)
	}
	if share > 0.9999 {
		t.Errorf("in-band share = %.6f — half-sine sidelobes missing", share)
	}
}

func TestInstantaneousFrequencyOfTone(t *testing.T) {
	// A pure tone at f has constant phase increment 2πf/fs.
	n := 100
	f := 250e3
	w := make([]complex128, n)
	for i := range w {
		w[i] = cmplx.Rect(1, 2*math.Pi*f*float64(i)/SampleRate)
	}
	inst := InstantaneousFrequency(w)
	want := 2 * math.Pi * f / SampleRate
	for i, v := range inst {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("sample %d: %g, want %g", i, v, want)
		}
	}
	if got := InstantaneousFrequency(w[:1]); got != nil {
		t.Error("single sample should give nil")
	}
}

func TestSymbolWaveform(t *testing.T) {
	w, err := SymbolWaveform(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != SamplesPerSymbol+QOffsetSamples {
		t.Errorf("length = %d", len(w))
	}
	if _, err := SymbolWaveform(200); err == nil {
		t.Error("accepted invalid symbol")
	}
}

// chipsInto runs one of the allocation-free chip kernels (DemodulateInto,
// PeakChipsInto, DiscriminatorChipsInto) into a fresh numChips buffer.
func chipsInto(kernel func([]float64, []complex128) error, wave []complex128, numChips int) ([]float64, error) {
	dst := make([]float64, max(numChips, 0))
	return dst, kernel(dst, wave)
}

// hardChips slices soft chip values at zero.
func hardChips(soft []float64) []bits.Bit {
	out := make([]bits.Bit, len(soft))
	for i, v := range soft {
		if v >= 0 {
			out[i] = 1
		}
	}
	return out
}
