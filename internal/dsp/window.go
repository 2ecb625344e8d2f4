package dsp

import "math"

// WindowFunc generates an n-point window. All windows here are symmetric
// (first and last coefficients equal), which keeps FIR designs linear-phase.
type WindowFunc func(n int) []float64

// Hann returns the raised-cosine window.
func Hann(n int) []float64 {
	return cosineWindow(n, []float64{0.5, 0.5})
}

// Blackman returns the three-term Blackman window (sidelobes ≈ −58 dB),
// the default for the resampler's anti-imaging filters.
func Blackman(n int) []float64 {
	return cosineWindow(n, []float64{0.42, 0.5, 0.08})
}

// cosineWindow evaluates Σ_m (−1)^m a_m cos(2πmi/(n−1)).
func cosineWindow(n int, a []float64) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n-1)
		var v float64
		sign := 1.0
		for m, am := range a {
			v += sign * am * math.Cos(2*math.Pi*float64(m)*x)
			sign = -sign
		}
		w[i] = v
	}
	return w
}
