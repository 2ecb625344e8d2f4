package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestWelchPSDValidation(t *testing.T) {
	if _, err := WelchPSD(make([]complex128, 100), 1, nil); err == nil {
		t.Error("accepted segment length 1")
	}
	if _, err := WelchPSD(make([]complex128, 400), 100, nil); err == nil {
		t.Error("accepted segment length 100, not a power of two")
	}
	if _, err := WelchPSD(make([]complex128, 10), 64, nil); err == nil {
		t.Error("accepted short signal")
	}
}

func TestWelchPSDLocatesTone(t *testing.T) {
	fs := 4e6
	f0 := 500e3
	n := 8192
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*f0*float64(i)/fs)
	}
	psd, err := WelchPSD(x, 256, Hann)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for k, v := range psd {
		if v > psd[best] {
			best = k
		}
	}
	fPeak, err := BinFrequency(best, len(psd), fs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fPeak-f0) > fs/256 {
		t.Errorf("peak at %g Hz, want %g", fPeak, f0)
	}
}

func TestWelchPSDPowerConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	x := randComplexSlice(rng, 16384)
	psd, err := WelchPSD(x, 256, Hann)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range psd {
		total += v
	}
	total /= float64(len(psd))
	if math.Abs(total-Power(x))/Power(x) > 0.1 {
		t.Errorf("PSD total %g vs signal power %g", total, Power(x))
	}
}

func TestBandPower(t *testing.T) {
	fs := 4e6
	n := 4096
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*300e3*float64(i)/fs)
	}
	psd, err := WelchPSD(x, 128, Hann)
	if err != nil {
		t.Fatal(err)
	}
	inBand, err := BandPower(psd, fs, 200e3, 400e3)
	if err != nil {
		t.Fatal(err)
	}
	outBand, err := BandPower(psd, fs, -1e6, -200e3)
	if err != nil {
		t.Fatal(err)
	}
	if inBand < 100*math.Max(outBand, 1e-12) {
		t.Errorf("tone not confined: in %g, out %g", inBand, outBand)
	}
	if _, err := BandPower(psd, fs, 100, -100); err == nil {
		t.Error("accepted inverted band")
	}
	if _, err := BandPower(nil, fs, 0, 1); err == nil {
		t.Error("accepted empty PSD")
	}
}

func TestOccupiedBandwidthOfZigBeeLikeSignal(t *testing.T) {
	// A 2 Mchip/s half-sine signal concentrates 99 % of its power within
	// roughly ±1.5 MHz. Build an equivalent random MSK-like signal via a
	// band-limited process.
	rng := rand.New(rand.NewSource(502))
	x := bandLimitedSignal(rng, 4096, 0.25) // |f| < 1 MHz at 4 MS/s
	psd, err := WelchPSD(x, 256, Hann)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := OccupiedBandwidth(psd, 4e6, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if bw < 1.5e6 || bw > 2.6e6 {
		t.Errorf("occupied bandwidth %g Hz for a ±1 MHz signal", bw)
	}
	if _, err := OccupiedBandwidth(psd, 4e6, 0); err == nil {
		t.Error("accepted fraction 0")
	}
	if _, err := OccupiedBandwidth(nil, 4e6, 0.9); err == nil {
		t.Error("accepted empty PSD")
	}
	if _, err := OccupiedBandwidth(make([]float64, 8), 4e6, 0.9); err == nil {
		t.Error("accepted zero-power PSD")
	}
}
