package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// NormalizedCrossCorrelate returns, for each lag 0 ≤ l ≤ len(x)−len(ref),
// |Σ_n x[l+n]·conj(ref[n])| divided by the geometric mean of the lag's
// window energy and the reference energy, yielding values in [0, 1] that
// are robust to amplitude scaling. Each lag reads only its own window
// (see Correlator.ExactAt), so the direct O(lags·len(ref)) sweep is the
// reference implementation of the correlation.
func NormalizedCrossCorrelate(x, ref []complex128) []float64 {
	if len(ref) == 0 || len(x) < len(ref) {
		return nil
	}
	return NormalizedCrossCorrelateInto(make([]float64, len(x)-len(ref)+1), x, ref)
}

// NormalizedCrossCorrelateInto is NormalizedCrossCorrelate writing into a
// caller-provided buffer of length len(x)−len(ref)+1, allocating nothing.
// It returns dst for call-site convenience.
func NormalizedCrossCorrelateInto(dst []float64, x, ref []complex128) []float64 {
	lags := len(x) - len(ref) + 1
	if len(ref) == 0 || lags < 1 {
		panic("dsp: NormalizedCrossCorrelateInto on undersized input")
	}
	if len(dst) != lags {
		panic(fmt.Sprintf("dsp: correlate into %d-lag buffer, want %d", len(dst), lags))
	}
	refEnergy := Energy(ref)
	for l := range dst {
		dst[l] = exactLag(x[l:l+len(ref)], ref, refEnergy)
	}
	return dst
}

// exactLag is the normalized correlation of one window against ref, with
// the numerator and the window energy both summed directly in sample
// order: the one definition of a lag's value that NormalizedCrossCorrelate
// and Correlator.ExactAt share. A window without energy reads 0.
func exactLag(win, ref []complex128, refEnergy float64) float64 {
	if refEnergy == 0 {
		return 0
	}
	win = win[:len(ref)]
	var acc complex128
	var winEnergy float64
	for n, r := range ref {
		acc += win[n] * cmplx.Conj(r)
		winEnergy += sqAbs(win[n])
	}
	denom := math.Sqrt(winEnergy * refEnergy)
	if denom > 0 {
		return cmplx.Abs(acc) / denom
	}
	return 0
}

func sqAbs(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

// PeakIndex returns the index of the maximum value in x, skipping NaN
// values (a NaN in slot 0 would otherwise win every `v > x[best]`
// comparison and poison the peak). It returns −1 for empty or all-NaN
// input.
func PeakIndex(x []float64) int {
	best := -1
	for i, v := range x {
		if math.IsNaN(v) {
			continue
		}
		if best < 0 || v > x[best] {
			best = i
		}
	}
	return best
}

// SegmentCorrelation returns the normalized correlation magnitude between
// two equal-length segments — used by the cyclic-prefix repetition detector
// (the paper's first candidate defense, Sec. VI-A-1).
func SegmentCorrelation(a, b []complex128) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var acc complex128
	for i := range a {
		acc += a[i] * cmplx.Conj(b[i])
	}
	denom := math.Sqrt(Energy(a) * Energy(b))
	if denom == 0 {
		return 0
	}
	return cmplx.Abs(acc) / denom
}
