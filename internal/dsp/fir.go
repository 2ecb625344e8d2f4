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

// GroupDelay returns the filter's delay in samples ((numTaps−1)/2 for the
// linear-phase designs produced here).
func (f *FIR) GroupDelay() int { return (len(f.taps) - 1) / 2 }

// sameAt returns output i of the delay-compensated ("same") filtering of
// x: Σ_j taps[j]·x[i+d−j] over valid input indices, skipping zero inputs.
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
