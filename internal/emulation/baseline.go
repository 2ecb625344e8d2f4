package emulation

import (
	"fmt"

	"hideseek/internal/dsp"
	"hideseek/internal/wifi"
	"hideseek/internal/zigbee"
)

// This file implements the candidate defenses the paper analyzes and
// rejects in Sec. VI-A-1 — they exist so the evaluation can demonstrate
// *why* they fail (Figs. 8 and 9), exactly as the paper does.

// FrequencyProfile summarizes the OQPSK demodulation output (instantaneous
// frequency) of a waveform — the paper's Fig. 9a candidate. The paper
// rejects it because authentic and emulated waveforms share the trend; the
// profile exposes that by reporting the mean absolute difference between
// two waveforms' frequency traces.
func FrequencyProfile(waveform []complex128) []float64 {
	return zigbee.InstantaneousFrequency(waveform)
}

// FrequencyProfileDistance returns the mean absolute difference between
// the instantaneous-frequency traces of two equal-length waveforms,
// normalized by the mean absolute frequency of the reference — a
// dimensionless "how different do the demod outputs look" score.
func FrequencyProfileDistance(ref, other []complex128) (float64, error) {
	if len(ref) != len(other) {
		return 0, fmt.Errorf("emulation: length mismatch %d vs %d", len(ref), len(other))
	}
	fr := FrequencyProfile(ref)
	fo := FrequencyProfile(other)
	if len(fr) == 0 {
		return 0, fmt.Errorf("emulation: waveform too short for a frequency profile")
	}
	var diff, scale float64
	for i := range fr {
		d := fr[i] - fo[i]
		if d < 0 {
			d = -d
		}
		diff += d
		a := fr[i]
		if a < 0 {
			a = -a
		}
		scale += a
	}
	if scale == 0 {
		return 0, fmt.Errorf("emulation: reference has zero frequency content")
	}
	return diff / scale, nil
}

// ChipDistanceHistogramFromResults tallies per-symbol Hamming distances out
// of despreading results — Fig. 7's candidate (and diagnostic). The paper
// keeps it as an observation, not a defense, because DSSS forgives the
// errors.
func ChipDistanceHistogramFromResults(results []zigbee.DespreadResult) map[int]int {
	out := make(map[int]int)
	for _, r := range results {
		out[r.Distance]++
	}
	return out
}

// DownsampledCPSegmentScores runs the CP correlation per 4 µs window at the
// ZigBee receiver's own 4 MS/s clock, where a 0.8 µs prefix spans a
// non-integer 3.2 samples (rounded to 3 against a 16-sample window). Each
// window yields one score; the per-window statistic is what a receiver
// would have to threshold to flag a frame quickly, and at this clock it is
// noise-dominated — the quantitative form of the paper's rejection.
//
// Reproduction note: *averaging* the scores over a whole packet in pure
// AWGN does separate the classes in this implementation (the CP property
// survives LTI channels), a nuance recorded in EXPERIMENTS.md; the paper's
// claim holds at the per-window horizon.
func DownsampledCPSegmentScores(waveform4M []complex128) ([]float64, error) {
	const symbolLen = wifi.SymbolSamples / Interpolation // 16 samples
	const cpLen = 3                                      // floor(0.8 µs · 4 MS/s)
	if len(waveform4M) < symbolLen {
		return nil, fmt.Errorf("emulation: waveform shorter than one 4 µs window")
	}
	n := len(waveform4M) / symbolLen
	out := make([]float64, n)
	for s := 0; s < n; s++ {
		seg := waveform4M[s*symbolLen : (s+1)*symbolLen]
		out[s] = dsp.SegmentCorrelation(seg[:cpLen], seg[symbolLen-cpLen:])
	}
	return out, nil
}
