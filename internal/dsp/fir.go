package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite-impulse-response filter with real coefficients, applied to
// complex baseband samples.
type FIR struct {
	taps []float64
}

// NewFIR wraps the given tap vector. The coefficient slice is copied so the
// caller cannot mutate the filter afterwards.
func NewFIR(taps []float64) (*FIR, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("dsp: FIR needs at least one tap")
	}
	c := make([]float64, len(taps))
	copy(c, taps)
	return &FIR{taps: c}, nil
}

// DesignLowPass designs a linear-phase low-pass FIR by the windowed-sinc
// method. cutoff is the −6 dB edge as a fraction of the sample rate
// (0 < cutoff < 0.5); numTaps is forced odd so the group delay is an integer
// number of samples.
func DesignLowPass(cutoff float64, numTaps int, window WindowFunc) (*FIR, error) {
	if cutoff <= 0 || cutoff >= 0.5 {
		return nil, fmt.Errorf("dsp: cutoff %v outside (0, 0.5)", cutoff)
	}
	if numTaps < 3 {
		return nil, fmt.Errorf("dsp: need at least 3 taps, got %d", numTaps)
	}
	if numTaps%2 == 0 {
		numTaps++
	}
	if window == nil {
		window = Blackman
	}
	w := window(numTaps)
	taps := make([]float64, numTaps)
	mid := numTaps / 2
	var sum float64
	for i := range taps {
		n := float64(i - mid)
		var v float64
		if i == mid {
			v = 2 * cutoff
		} else {
			v = math.Sin(2*math.Pi*cutoff*n) / (math.Pi * n)
		}
		taps[i] = v * w[i]
		sum += taps[i]
	}
	// Normalize to unit DC gain.
	for i := range taps {
		taps[i] /= sum
	}
	return &FIR{taps: taps}, nil
}

// Taps returns a copy of the coefficient vector.
func (f *FIR) Taps() []float64 {
	out := make([]float64, len(f.taps))
	copy(out, f.taps)
	return out
}

// GroupDelay returns the filter's delay in samples ((numTaps−1)/2 for the
// linear-phase designs produced here).
func (f *FIR) GroupDelay() int { return (len(f.taps) - 1) / 2 }

// Filter convolves x with the taps and returns the full convolution of
// length len(x)+len(taps)−1.
func (f *FIR) Filter(x []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x)+len(f.taps)-1)
	for i, v := range x {
		if v == 0 {
			continue
		}
		for j, t := range f.taps {
			out[i+j] += v * complex(t, 0)
		}
	}
	return out
}

// FilterSame convolves and trims the result to len(x), compensating the
// group delay so the output is time-aligned with the input.
func (f *FIR) FilterSame(x []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x))
	f.FilterSameInto(out, x)
	return out
}

// FilterSameInto is FilterSame with a caller-provided destination
// (len(dst) == len(x), dst must not alias x). It convolves directly into
// the output window, allocating nothing — the form the per-worker DSP
// scratch paths use.
func (f *FIR) FilterSameInto(dst, x []complex128) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("dsp: FilterSameInto dst %d != src %d", len(dst), len(x)))
	}
	for i := range dst {
		dst[i] = f.sameAt(x, i)
	}
}

// sameAt returns output i of FilterSame(x): Σ_j taps[j]·x[i+d−j] over valid
// input indices, skipping zero inputs.
func (f *FIR) sameAt(x []complex128, i int) complex128 {
	d := f.GroupDelay()
	lo := max(i+d-(len(f.taps)-1), 0)
	hi := min(i+d, len(x)-1)
	var acc complex128
	for k := lo; k <= hi; k++ {
		v := x[k]
		if v == 0 {
			continue
		}
		acc += v * complex(f.taps[i+d-k], 0)
	}
	return acc
}

// FrequencyResponse evaluates H(e^{j2πf}) at the given normalized frequency
// (cycles per sample).
func (f *FIR) FrequencyResponse(freq float64) complex128 {
	var h complex128
	for n, t := range f.taps {
		ang := -2 * math.Pi * freq * float64(n)
		h += complex(t*math.Cos(ang), t*math.Sin(ang))
	}
	return h
}
