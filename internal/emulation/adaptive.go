package emulation

import (
	"fmt"
	"sort"

	"hideseek/internal/calib"
	"hideseek/internal/zigbee"
)

// AdaptiveDetector indexes the decision threshold by a working SNR
// estimate: at low SNR the authentic D² distribution shifts up (FM
// discriminator noise), so one fixed Q either false-alarms there or wastes
// margin at high SNR. A small calibration table of (SNR, Q) pairs fixes
// both — an extension past the paper's single-threshold design that
// recovers detection below the fixed-Q floor.
// The working SNR is the larger of the receiver's preamble-residual
// Reception.SNREstimateDB and zigbee.OutOfBandSNREstimate, which the
// detector computes on the waveform it is given, from the frame start on.
type AdaptiveDetector struct {
	det     *Detector
	buckets []ThresholdBucket
}

// ThresholdBucket maps an SNR operating point to its calibrated threshold.
type ThresholdBucket struct {
	SNRdB float64
	Q     float64
}

// NewAdaptiveDetector wraps a detector configuration with an SNR-indexed
// threshold table (the config's own Threshold is ignored). Buckets must be
// non-empty; they are sorted by SNR internally.
func NewAdaptiveDetector(cfg DefenseConfig, buckets []ThresholdBucket) (*AdaptiveDetector, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("emulation: no threshold buckets")
	}
	det, err := NewDetector(cfg)
	if err != nil {
		return nil, err
	}
	sorted := append([]ThresholdBucket(nil), buckets...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].SNRdB < sorted[b].SNRdB })
	for i, b := range sorted {
		if b.Q <= 0 {
			return nil, fmt.Errorf("emulation: bucket %d has non-positive threshold %v", i, b.Q)
		}
	}
	return &AdaptiveDetector{det: det, buckets: sorted}, nil
}

// ThresholdFor interpolates the calibration table at the given SNR
// (clamped at the table edges).
func (a *AdaptiveDetector) ThresholdFor(snrDB float64) float64 {
	bs := a.buckets
	if snrDB <= bs[0].SNRdB {
		return bs[0].Q
	}
	last := bs[len(bs)-1]
	if snrDB >= last.SNRdB {
		return last.Q
	}
	for i := 1; i < len(bs); i++ {
		if snrDB <= bs[i].SNRdB {
			lo, hi := bs[i-1], bs[i]
			frac := (snrDB - lo.SNRdB) / (hi.SNRdB - lo.SNRdB)
			return lo.Q + frac*(hi.Q-lo.Q)
		}
	}
	return last.Q
}

// Analyze scores a reception, received from waveform, against the
// threshold chosen by its working SNR.
func (a *AdaptiveDetector) Analyze(rec *zigbee.Reception, waveform []complex128) (Verdict, error) {
	if rec.StartSample < 0 || rec.StartSample > len(waveform) {
		return Verdict{}, fmt.Errorf("emulation: frame start %d outside waveform of %d samples", rec.StartSample, len(waveform))
	}
	verdict, err := a.det.AnalyzeReception(rec)
	if err != nil {
		return Verdict{}, err
	}
	verdict.Attack = verdict.DistanceSquared > a.ThresholdFor(workingSNR(rec, waveform))
	return verdict, nil
}

// workingSNR is the SNR Analyze indexes its threshold by. A waveform too
// short for the out-of-band PSD leaves the preamble-residual estimate.
func workingSNR(rec *zigbee.Reception, waveform []complex128) float64 {
	snr := rec.SNREstimateDB
	if oob, err := zigbee.OutOfBandSNREstimate(waveform[rec.StartSample:]); err == nil && oob > snr {
		snr = oob
	}
	return snr
}

// CalibrateAdaptive builds the bucket table from per-SNR training
// distances: each bucket's Q is calib.FitBoundary's cut at that SNR, the
// midpoint between the authentic max and emulated min. Buckets whose
// classes overlap (nonzero fit cost) are skipped; at least one bucket must
// survive.
func CalibrateAdaptive(snrsDB []float64, authentic, emulated [][]float64) ([]ThresholdBucket, error) {
	if len(snrsDB) != len(authentic) || len(snrsDB) != len(emulated) {
		return nil, fmt.Errorf("emulation: calibration shape mismatch: %d SNRs, %d/%d sample sets",
			len(snrsDB), len(authentic), len(emulated))
	}
	var out []ThresholdBucket
	for i, snr := range snrsDB {
		q, cost, err := calib.FitBoundary(authentic[i], emulated[i])
		if err != nil || cost > 0 {
			continue // empty or overlapping classes at this SNR — no reliable bucket
		}
		out = append(out, ThresholdBucket{SNRdB: snr, Q: q})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("emulation: no SNR bucket separates the classes")
	}
	return out, nil
}
