package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// bandLimitedSignal builds a random signal whose spectrum is confined to
// |f| < maxFreq cycles/sample, so interpolation can reconstruct it exactly.
// It sums the inverse DFT directly, so n need not be a power of two.
func bandLimitedSignal(rng *rand.Rand, n int, maxFreq float64) []complex128 {
	spec := make([]complex128, n)
	lim := int(maxFreq * float64(n))
	for k := 0; k <= lim; k++ {
		spec[k] = complex(rng.NormFloat64(), rng.NormFloat64())
		if k > 0 {
			spec[n-k] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	twiddle := make([]complex128, n) // e^{+j2πm/n}
	for m := range twiddle {
		twiddle[m] = cmplx.Rect(1/float64(n), 2*math.Pi*float64(m)/float64(n))
	}
	x := make([]complex128, n)
	for k, v := range spec {
		if v == 0 {
			continue
		}
		for i := range x {
			x[i] += v * twiddle[k*i%n]
		}
	}
	return x
}

func TestNewInterpolatorValidation(t *testing.T) {
	if _, err := NewInterpolator(0, 8); err == nil {
		t.Error("accepted factor 0")
	}
	if _, err := NewInterpolator(5, 1); err == nil {
		t.Error("accepted tapsPerPhase 1")
	}
}

func TestInterpolatorFactorOne(t *testing.T) {
	ip, err := NewInterpolator(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := []complex128{1, 2i, 3}
	y := ip.Process(x)
	if d := maxDeviation(x, y); d != 0 {
		t.Errorf("factor-1 interpolation altered signal by %g", d)
	}
	y[0] = 99
	if x[0] == 99 {
		t.Error("factor-1 interpolation aliased input")
	}
}

func TestInterpolatorReconstructsBandLimited(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := bandLimitedSignal(rng, 256, 0.08)
	ip, err := NewInterpolator(5, 16)
	if err != nil {
		t.Fatal(err)
	}
	y := ip.Process(x)
	if len(y) != len(x)*5 {
		t.Fatalf("output length = %d, want %d", len(y), len(x)*5)
	}
	// Original samples should reappear at multiples of the factor
	// (edges excluded — the FIR has transients there).
	guard := 20
	var worst float64
	scale := maxAbs(x)
	for i := guard; i < len(x)-guard; i++ {
		if d := cmplx.Abs(y[i*5]-x[i]) / scale; d > worst {
			worst = d
		}
	}
	if worst > 0.02 {
		t.Errorf("worst on-grid deviation = %g", worst)
	}
}

func TestInterpolateThenDecimateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := bandLimitedSignal(rng, 200, 0.1)
	ip, err := NewInterpolator(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	up := ip.Process(x)
	down, err := Decimate(up, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(down) != len(x) {
		t.Fatalf("round-trip length = %d, want %d", len(down), len(x))
	}
	guard := 30
	scale := maxAbs(x)
	for i := guard; i < len(x)-guard; i++ {
		if d := cmplx.Abs(down[i]-x[i]) / scale; d > 0.03 {
			t.Fatalf("sample %d deviates by %g", i, d)
		}
	}
}

func TestDecimateValidation(t *testing.T) {
	if _, err := Decimate(nil, 0); err == nil {
		t.Error("accepted factor 0")
	}
	x := []complex128{1, 2, 3}
	y, err := Decimate(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDeviation(x, y); d != 0 {
		t.Error("factor-1 decimation altered signal")
	}
}

func TestLinearInterpolate(t *testing.T) {
	if _, err := LinearInterpolate(nil, 0); err == nil {
		t.Error("accepted factor 0")
	}
	y, err := LinearInterpolate([]complex128{0, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{0, 1, 2, 2}
	if d := maxDeviation(y, want); d > 1e-12 {
		t.Errorf("LinearInterpolate = %v, want %v", y, want)
	}
	empty, err := LinearInterpolate(nil, 3)
	if err != nil || empty != nil {
		t.Errorf("LinearInterpolate(nil) = %v, %v", empty, err)
	}
}

func TestInterpolatorPreservesTone(t *testing.T) {
	// A 100 kHz tone at 4 MS/s upsampled ×5 must remain a 100 kHz tone at
	// 20 MS/s with the same amplitude.
	n := 400
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*100e3*float64(i)/4e6)
	}
	ip, err := NewInterpolator(5, 16)
	if err != nil {
		t.Fatal(err)
	}
	y := ip.Process(x)
	guard := 100
	for i := guard; i < len(y)-guard; i++ {
		want := cmplx.Rect(1, 2*math.Pi*100e3*float64(i)/20e6)
		if cmplx.Abs(y[i]-want) > 0.02 {
			t.Fatalf("sample %d: got %v want %v", i, y[i], want)
		}
	}
}

// maxAbs returns the largest magnitude in x.
func maxAbs(x []complex128) float64 {
	var m float64
	for _, v := range x {
		m = math.Max(m, cmplx.Abs(v))
	}
	return m
}
