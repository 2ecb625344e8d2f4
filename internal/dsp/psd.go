package dsp

import (
	"fmt"
	"math"
)

// WelchPSD estimates the power spectral density of x by Welch's method:
// segment into windows of segmentLen with 50 % overlap, window, FFT,
// average the periodograms. segmentLen must be a power of two ≥ 2. The
// result has segmentLen bins in natural FFT order with total power ≈ mean
// signal power (one-sided scaling is left to the caller). A nil window
// means Hann. Used by the spectrum tests, the band-occupancy checks and
// zigbee's out-of-band SNR estimate.
func WelchPSD(x []complex128, segmentLen int, window WindowFunc) ([]float64, error) {
	if segmentLen < 2 || segmentLen&(segmentLen-1) != 0 {
		return nil, fmt.Errorf("dsp: segment length %d is not a power of two ≥ 2", segmentLen)
	}
	if window == nil {
		window = Hann
	}
	w := window(segmentLen)
	var wPower float64
	for _, v := range w {
		wPower += v * v
	}
	if wPower == 0 {
		return nil, fmt.Errorf("dsp: window has zero power")
	}
	if len(x) < segmentLen {
		return nil, fmt.Errorf("dsp: signal of %d samples shorter than segment %d", len(x), segmentLen)
	}
	psd := make([]float64, segmentLen)
	buf := make([]complex128, segmentLen)
	segments := 0
	for start := 0; start+segmentLen <= len(x); start += segmentLen / 2 {
		for i := range buf {
			buf[i] = x[start+i] * complex(w[i], 0)
		}
		FFTInto(buf, buf)
		for k, v := range buf {
			psd[k] += real(v)*real(v) + imag(v)*imag(v)
		}
		segments++
	}
	scale := 1 / (float64(segments) * wPower * float64(segmentLen))
	for k := range psd {
		psd[k] *= scale * float64(segmentLen)
	}
	return psd, nil
}

// BandPower integrates a PSD over the signed frequency band [lo, hi] Hz.
func BandPower(psd []float64, sampleRate, lo, hi float64) (float64, error) {
	if lo > hi {
		return 0, fmt.Errorf("dsp: band [%v, %v] inverted", lo, hi)
	}
	n := len(psd)
	if n == 0 {
		return 0, fmt.Errorf("dsp: empty PSD")
	}
	var sum float64
	for k := 0; k < n; k++ {
		f, err := BinFrequency(k, n, sampleRate)
		if err != nil {
			return 0, err
		}
		if f >= lo && f <= hi {
			sum += psd[k]
		}
	}
	return sum / float64(n), nil
}

// OccupiedBandwidth returns the smallest symmetric band around DC holding
// the given fraction of the PSD's total power.
func OccupiedBandwidth(psd []float64, sampleRate, fraction float64) (float64, error) {
	if fraction <= 0 || fraction > 1 {
		return 0, fmt.Errorf("dsp: fraction %v outside (0, 1]", fraction)
	}
	n := len(psd)
	if n == 0 {
		return 0, fmt.Errorf("dsp: empty PSD")
	}
	var total float64
	for _, v := range psd {
		total += v
	}
	if total == 0 {
		return 0, fmt.Errorf("dsp: zero-power PSD")
	}
	// Grow the band in bin steps.
	for half := 0; half <= n/2; half++ {
		var sum float64
		for k := -half; k <= half; k++ {
			sum += psd[(k+n)%n]
		}
		if sum/total >= fraction {
			return math.Min(2*float64(half)*sampleRate/float64(n), sampleRate), nil
		}
	}
	return sampleRate, nil
}
