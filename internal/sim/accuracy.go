package sim

import (
	"fmt"

	"hideseek/internal/emulation"
	"hideseek/internal/runner"
	"hideseek/internal/zigbee"
)

// AccuracySweepResult extends Fig. 12: detection accuracy at a FIXED
// threshold across the whole SNR range, exposing where the single-Q
// defense starts to fray (low SNR pushes authentic D² up toward Q).
type AccuracySweepResult struct {
	SNRsDB     []float64
	Accuracy   []float64
	FalseAlarm []float64 // authentic flagged
	Miss       []float64 // attacks passed
	Threshold  float64
	Samples    int
}

// AccuracySweep evaluates the default-threshold detector per SNR.
// Defaults: the 7–17 dB sweep at 50 samples per class.
func AccuracySweep(cfg Config) (*AccuracySweepResult, error) {
	snrsDB := cfg.SNRsOr(7, 9, 11, 13, 15, 17)
	samples := cfg.TrialsOr(50)
	d2o, d2e, err := distanceSamples(cfg.Seed, snrsDB, samples)
	if err != nil {
		return nil, err
	}
	q := emulation.DefaultThreshold
	res := &AccuracySweepResult{SNRsDB: snrsDB, Threshold: q, Samples: samples}
	for i := range snrsDB {
		var stats emulation.DetectionStats
		for _, d := range d2o[i] {
			stats.Score(false, d > q)
		}
		for _, d := range d2e[i] {
			stats.Score(true, d > q)
		}
		res.Accuracy = append(res.Accuracy, stats.Accuracy())
		fa := 0.0
		if n := stats.FalsePositives + stats.TrueNegatives; n > 0 {
			fa = float64(stats.FalsePositives) / float64(n)
		}
		miss := 0.0
		if n := stats.FalseNegatives + stats.TruePositives; n > 0 {
			miss = float64(stats.FalseNegatives) / float64(n)
		}
		res.FalseAlarm = append(res.FalseAlarm, fa)
		res.Miss = append(res.Miss, miss)
	}
	return res, nil
}

// Render emits the accuracy sweep rows.
func (r *AccuracySweepResult) Render() *Table {
	t := NewTable(fmt.Sprintf("Accuracy — Fixed Q = %.2f Across SNR (%d samples/class)", r.Threshold, r.Samples),
		"SNR (dB)", "accuracy", "false alarm", "miss")
	for i, snr := range r.SNRsDB {
		t.AddRowf(snr, r.Accuracy[i], r.FalseAlarm[i], r.Miss[i])
	}
	return t
}

// AdaptiveAccuracyResult compares the fixed-Q detector against the
// SNR-indexed adaptive detector over the same held-out waveforms.
type AdaptiveAccuracyResult struct {
	SNRsDB           []float64
	FixedAccuracy    []float64
	AdaptiveAccuracy []float64
	Buckets          []emulation.ThresholdBucket
	Samples          int
}

// AdaptiveAccuracy calibrates per-SNR thresholds on cfg.Trials training
// receptions (default 25), then scores both detectors on cfg.Samples
// held-out receptions (default: the training count).
func AdaptiveAccuracy(cfg Config) (*AdaptiveAccuracyResult, error) {
	seed := cfg.Seed
	snrsDB := cfg.SNRsOr(9, 11, 13, 15, 17)
	train := cfg.TrialsOr(25)
	test := cfg.SamplesOr(train)
	if train < 1 || test < 1 {
		return nil, fmt.Errorf("sim: train/test %d/%d must be positive", train, test)
	}
	link, err := firstLink()
	if err != nil {
		return nil, err
	}
	v, err := newVictim(zigbee.HardThreshold, emulation.DefenseConfig{})
	if err != nil {
		return nil, err
	}

	// received keeps a reception beside its waveform, which the adaptive
	// detector's out-of-band SNR leg reads.
	type received struct {
		rec  *zigbee.Reception
		wave []complex128
	}
	k := twoClass[*victim, received]{links: []*Link{link},
		victim: victimOf(zigbee.HardThreshold, emulation.DefenseConfig{}),
		measure: func(v *victim, _ *Link, rx []complex128) (received, bool) {
			rec, err := v.rx.Receive(rx)
			return received{rec, rx}, err == nil
		}}
	collect := func(region, n int) (recsA, recsE [][]received, err error) {
		recsA = make([][]received, len(snrsDB))
		recsE = make([][]received, len(snrsDB))
		for i, snr := range snrsDB {
			recsA[i], recsE[i], err = k.run(runner.Sweep{Seed: seed, Base: sweepBase(region, i)}, n, awgnAt(snr))
			if err != nil {
				return nil, nil, err
			}
		}
		return recsA, recsE, nil
	}

	trainA, trainE, err := collect(regionAdaptiveTrain, train)
	if err != nil {
		return nil, err
	}
	d2 := func(recs [][]received) [][]float64 {
		out := make([][]float64, len(recs))
		for i, rs := range recs {
			for _, r := range rs {
				if verdict, vErr := v.det.AnalyzeReception(r.rec); vErr == nil {
					out[i] = append(out[i], verdict.DistanceSquared)
				}
			}
		}
		return out
	}
	buckets, err := emulation.CalibrateAdaptive(snrsDB, d2(trainA), d2(trainE))
	if err != nil {
		return nil, fmt.Errorf("sim: adaptive calibration: %w", err)
	}
	adaptive, err := emulation.NewAdaptiveDetector(emulation.DefenseConfig{}, buckets)
	if err != nil {
		return nil, err
	}

	testA, testE, err := collect(regionAdaptiveTest, test)
	if err != nil {
		return nil, err
	}
	res := &AdaptiveAccuracyResult{SNRsDB: snrsDB, Buckets: buckets, Samples: test}
	for i := range snrsDB {
		var fixed, adapt emulation.DetectionStats
		score := func(recs []received, isAttack bool) error {
			for _, r := range recs {
				vf, err := v.det.AnalyzeReception(r.rec)
				if err != nil {
					continue
				}
				fixed.Score(isAttack, vf.Attack)
				va, err := adaptive.Analyze(r.rec, r.wave)
				if err != nil {
					continue
				}
				adapt.Score(isAttack, va.Attack)
			}
			return nil
		}
		if err := score(testA[i], false); err != nil {
			return nil, err
		}
		if err := score(testE[i], true); err != nil {
			return nil, err
		}
		res.FixedAccuracy = append(res.FixedAccuracy, fixed.Accuracy())
		res.AdaptiveAccuracy = append(res.AdaptiveAccuracy, adapt.Accuracy())
	}
	return res, nil
}

// Render emits the fixed-vs-adaptive rows.
func (r *AdaptiveAccuracyResult) Render() *Table {
	t := NewTable(fmt.Sprintf("Adaptive Defense — Fixed vs SNR-Indexed Threshold (%d test samples/class)", r.Samples),
		"SNR (dB)", "fixed-Q accuracy", "adaptive accuracy")
	for i, snr := range r.SNRsDB {
		t.AddRowf(snr, r.FixedAccuracy[i], r.AdaptiveAccuracy[i])
	}
	return t
}
