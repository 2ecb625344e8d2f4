package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestCrossCorrelatePeakAtOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ref := randComplexSlice(rng, 32)
	x := make([]complex128, 128)
	offset := 40
	copy(x[offset:], ref)
	corr := NormalizedCrossCorrelate(x, ref)
	if len(corr) != len(x)-len(ref)+1 {
		t.Fatalf("correlation length = %d", len(corr))
	}
	peak := PeakIndex(corr)
	if peak != offset {
		t.Errorf("peak at %d, want %d", peak, offset)
	}
}

func TestCrossCorrelateDegenerate(t *testing.T) {
	if got := NormalizedCrossCorrelate(nil, []complex128{1}); got != nil {
		t.Error("short signal should give nil")
	}
	if got := NormalizedCrossCorrelate([]complex128{1}, nil); got != nil {
		t.Error("empty ref should give nil")
	}
}

func TestNormalizedCrossCorrelateScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ref := randComplexSlice(rng, 24)
	x := make([]complex128, 100)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.05
	}
	offset := 30
	for i, v := range ref {
		x[offset+i] = v * 10 // embedded at 10x amplitude
	}
	corr := NormalizedCrossCorrelate(x, ref)
	peak := PeakIndex(corr)
	if peak != offset {
		t.Fatalf("peak at %d, want %d", peak, offset)
	}
	if corr[peak] < 0.99 || corr[peak] > 1.000001 {
		t.Errorf("normalized peak = %g, want ≈ 1", corr[peak])
	}
	for i, v := range corr {
		if v < 0 || v > 1.000001 {
			t.Errorf("corr[%d] = %g outside [0,1]", i, v)
		}
	}
}

func TestNormalizedCrossCorrelateZeroRef(t *testing.T) {
	corr := NormalizedCrossCorrelate(make([]complex128, 10), make([]complex128, 4))
	for _, v := range corr {
		if v != 0 {
			t.Fatal("zero-energy reference should yield zeros")
		}
	}
}

func TestPeakIndex(t *testing.T) {
	if got := PeakIndex(nil); got != -1 {
		t.Errorf("PeakIndex(nil) = %d", got)
	}
	if got := PeakIndex([]float64{1, 5, 3, 5}); got != 1 {
		t.Errorf("PeakIndex = %d, want first max 1", got)
	}
}

// TestPeakIndexSkipsNaN is the regression test for the NaN poisoning
// bug: a NaN in slot 0 made every `v > x[best]` comparison false, so the
// NaN "won" and the peak stuck at 0.
func TestPeakIndexSkipsNaN(t *testing.T) {
	nan := math.NaN()
	if got := PeakIndex([]float64{nan, 1, 3, 2}); got != 2 {
		t.Errorf("PeakIndex([NaN 1 3 2]) = %d, want 2", got)
	}
	if got := PeakIndex([]float64{1, nan, 3, nan, 2}); got != 2 {
		t.Errorf("PeakIndex with interior NaNs = %d, want 2", got)
	}
	if got := PeakIndex([]float64{nan, nan}); got != -1 {
		t.Errorf("PeakIndex(all NaN) = %d, want -1", got)
	}
	if got := PeakIndex([]float64{nan, 7}); got != 1 {
		t.Errorf("PeakIndex([NaN 7]) = %d, want 1", got)
	}
}

// TestCrossCorrelateEdgeCases covers the degenerate-input contract:
// empty reference, reference longer than the signal, zero-energy inputs.
func TestCrossCorrelateEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := randComplexSlice(rng, 8)
	if got := NormalizedCrossCorrelate(x, randComplexSlice(rng, 9)); got != nil {
		t.Error("ref longer than x should give nil")
	}
	if got := NormalizedCrossCorrelate(nil, nil); got != nil {
		t.Error("both empty should give nil")
	}
	if got := NormalizedCrossCorrelate(x, x); len(got) != 1 {
		t.Errorf("equal lengths give %d lags, want 1", len(got))
	}
	// Zero-energy signal against a live reference: every window energy
	// is 0, so every lag must read a defined 0 (not stale memory).
	corr := NormalizedCrossCorrelate(make([]complex128, 20), randComplexSlice(rng, 4))
	for l, v := range corr {
		if v != 0 {
			t.Errorf("zero-energy signal lag %d = %v, want 0", l, v)
		}
	}
}

func TestSegmentCorrelationZeroEnergyOneSide(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randComplexSlice(rng, 12)
	if c := SegmentCorrelation(a, make([]complex128, 12)); c != 0 {
		t.Errorf("zero-energy b gives %v, want 0", c)
	}
	if c := SegmentCorrelation(make([]complex128, 12), a); c != 0 {
		t.Errorf("zero-energy a gives %v, want 0", c)
	}
}

func TestSegmentCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randComplexSlice(rng, 16)

	if c := SegmentCorrelation(a, a); math.Abs(c-1) > 1e-12 {
		t.Errorf("self-correlation = %g, want 1", c)
	}
	scaled := Scale(a, 3+1i)
	if c := SegmentCorrelation(a, scaled); math.Abs(c-1) > 1e-12 {
		t.Errorf("scaled correlation = %g, want 1", c)
	}
	b := randComplexSlice(rng, 16)
	if c := SegmentCorrelation(a, b); c > 0.8 {
		t.Errorf("independent correlation = %g, suspiciously high", c)
	}
	if c := SegmentCorrelation(a, b[:8]); c != 0 {
		t.Error("mismatched lengths should yield 0")
	}
	if c := SegmentCorrelation(nil, nil); c != 0 {
		t.Error("empty segments should yield 0")
	}
	if c := SegmentCorrelation(make([]complex128, 4), make([]complex128, 4)); c != 0 {
		t.Error("zero-energy segments should yield 0")
	}
}
