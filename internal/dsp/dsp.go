// Package dsp provides the signal-processing substrate used by every PHY in
// the repository: complex-vector arithmetic, FFT/IFFT, sample-rate
// conversion, FIR low-pass design, windows, correlation and spectral
// estimation. Everything operates on []complex128 baseband samples.
package dsp

import (
	"math"
	"math/cmplx"
)

// Scale multiplies every element of x by a and returns a new slice.
func Scale(x []complex128, a complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = v * a
	}
	return out
}

// Energy returns the total energy Σ|x|².
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// Power returns the mean power Σ|x|²/N, or 0 for an empty slice.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// Conj returns the element-wise complex conjugate of x.
func Conj(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = cmplx.Conj(v)
	}
	return out
}

// Real extracts the in-phase components of x.
func Real(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = real(v)
	}
	return out
}

// Imag extracts the quadrature components of x.
func Imag(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = imag(v)
	}
	return out
}

// DB converts a linear power ratio to decibels. Non-positive input maps to
// −Inf, matching the mathematical limit.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }
