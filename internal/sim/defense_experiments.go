package sim

import (
	"fmt"
	"math/cmplx"

	"hideseek/internal/calib"
	"hideseek/internal/channel"
	"hideseek/internal/emulation"
	"hideseek/internal/hos"
	"hideseek/internal/runner"
	"hideseek/internal/zigbee"
)

// Fig6Result reproduces Fig. 6: the reconstructed constellation diagrams
// under AWGN and under the real channel, with k-means cluster centers.
type Fig6Result struct {
	AWGNPoints  []complex128
	RealPoints  []complex128
	AWGNCenters []complex128
	RealCenters []complex128
	// CenterSpread is the mean distance of cluster centers from the ideal
	// axis-aligned QPSK points — larger in the real environment.
	AWGNSpread, RealSpread float64
}

// Fig6 receives one authentic frame through each channel and clusters the
// reconstructed constellations with k = 4 (default SNR 17 dB).
func Fig6(cfg Config) (*Fig6Result, error) {
	seed := cfg.Seed
	snrDB := cfg.SNROr(17)
	_, raw, err := firstObservation()
	if err != nil {
		return nil, err
	}
	obs := padTail(raw, 8)
	v, err := newVictim(zigbee.HardThreshold, emulation.DefenseConfig{})
	if err != nil {
		return nil, err
	}

	awgn, err := channel.NewAWGN(snrDB, rngFor(seed, 61))
	if err != nil {
		return nil, err
	}
	realCh, err := realChannelAt(rngFor(seed, 62), snrDB)
	if err != nil {
		return nil, err
	}

	extract := func(ch channel.Channel, salt int64) ([]complex128, []complex128, float64, error) {
		rec, err := v.rx.Receive(ch.Apply(obs))
		if err != nil {
			return nil, nil, 0, fmt.Errorf("sim: fig6: %w", err)
		}
		chips, err := emulation.ChipsFromReception(rec, emulation.SourceDiscriminator)
		if err != nil {
			return nil, nil, 0, err
		}
		points, err := emulation.ReconstructConstellation(chips)
		if err != nil {
			return nil, nil, 0, err
		}
		km, err := hos.KMeans(points, 4, 100, rngFor(seed, salt))
		if err != nil {
			return nil, nil, 0, err
		}
		return points, km.Centers, qpskCenterSpread(km.Centers), nil
	}

	res := &Fig6Result{}
	res.AWGNPoints, res.AWGNCenters, res.AWGNSpread, err = extract(awgn, 63)
	if err != nil {
		return nil, err
	}
	res.RealPoints, res.RealCenters, res.RealSpread, err = extract(realCh, 64)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// qpskCenterSpread measures the mean distance from each center to its
// nearest ideal axis-aligned QPSK point (scaled to the centers' RMS).
func qpskCenterSpread(centers []complex128) float64 {
	var rms float64
	for _, c := range centers {
		rms += real(c)*real(c) + imag(c)*imag(c)
	}
	if rms == 0 {
		return 0
	}
	rms = cmplxSqrt(rms / float64(len(centers)))
	ideal := []complex128{complex(rms, 0), complex(-rms, 0), complex(0, rms), complex(0, -rms)}
	var sum float64
	for _, c := range centers {
		best := cmplx.Abs(c - ideal[0])
		for _, p := range ideal[1:] {
			if d := cmplx.Abs(c - p); d < best {
				best = d
			}
		}
		sum += best / rms
	}
	return sum / float64(len(centers))
}

func cmplxSqrt(v float64) float64 { return real(cmplx.Sqrt(complex(v, 0))) }

// Render summarizes both clusterings.
func (r *Fig6Result) Render() *Table {
	t := NewTable("Fig. 6 — Constellation Diagram (k-means, k=4)",
		"environment", "points", "relative center spread")
	t.AddRowf("AWGN", len(r.AWGNPoints), r.AWGNSpread)
	t.AddRowf("real", len(r.RealPoints), r.RealSpread)
	return t
}

// SeriesCSV exposes the point clouds through the common result interface.
func (r *Fig6Result) SeriesCSV() (string, error) { return r.PointsCSV(), nil }

// PointsCSV dumps both point clouds for plotting.
func (r *Fig6Result) PointsCSV() string {
	out := "env,i,q\n"
	for _, p := range r.AWGNPoints {
		out += fmt.Sprintf("awgn,%g,%g\n", real(p), imag(p))
	}
	for _, p := range r.RealPoints {
		out += fmt.Sprintf("real,%g,%g\n", real(p), imag(p))
	}
	return out
}

// CumulantSweepResult reproduces Figs. 10 and 11: Ĉ42 and Ĉ40 vs SNR for
// both classes.
type CumulantSweepResult struct {
	SNRsDB []float64
	// Mean estimates per SNR.
	OriginalC42, EmulatedC42 []float64
	OriginalC40, EmulatedC40 []float64
	Waveforms                int
}

// CumulantSweep receives noisy copies per SNR per class and averages the
// normalized cumulants. Defaults: 3–19 dB sweep, 100 waveforms per point.
func CumulantSweep(cfg Config) (*CumulantSweepResult, error) {
	seed := cfg.Seed
	snrsDB := cfg.SNRsOr(3, 5, 7, 9, 11, 13, 15, 17, 19)
	waveforms := cfg.TrialsOr(100)
	if waveforms < 1 {
		return nil, fmt.Errorf("sim: waveforms %d < 1", waveforms)
	}
	link, err := firstLink()
	if err != nil {
		return nil, err
	}
	k := twoClass[*victim, emulation.Verdict]{links: []*Link{link},
		victim: victimOf(zigbee.HardThreshold, emulation.DefenseConfig{}), measure: zigbeeVerdict, paired: true}
	c42 := func(v emulation.Verdict) float64 { return v.Cumulants.C42 }
	c40 := func(v emulation.Verdict) float64 { return real(v.Cumulants.C40) }
	res := &CumulantSweepResult{SNRsDB: snrsDB, Waveforms: waveforms}
	for i, snr := range snrsDB {
		orig, emul, err := k.run(runner.Sweep{Seed: seed, Base: sweepBase(regionCumulant, i)}, waveforms, awgnAt(snr))
		if err != nil {
			return nil, err
		}
		if len(orig) == 0 {
			return nil, fmt.Errorf("sim: no successful receptions at %g dB", snr)
		}
		res.OriginalC42 = append(res.OriginalC42, meanBy(orig, c42))
		res.EmulatedC42 = append(res.EmulatedC42, meanBy(emul, c42))
		res.OriginalC40 = append(res.OriginalC40, meanBy(orig, c40))
		res.EmulatedC40 = append(res.EmulatedC40, meanBy(emul, c40))
	}
	return res, nil
}

// RenderC42 emits the Fig. 10 rows.
func (r *CumulantSweepResult) RenderC42() *Table {
	t := NewTable("Fig. 10 — Ĉ42 vs SNR (theory: −1 for QPSK)",
		"SNR (dB)", "original Ĉ42", "emulated Ĉ42")
	for i, snr := range r.SNRsDB {
		t.AddRowf(snr, r.OriginalC42[i], r.EmulatedC42[i])
	}
	return t
}

// RenderC40 emits the Fig. 11 rows.
func (r *CumulantSweepResult) RenderC40() *Table {
	t := NewTable("Fig. 11 — Re(Ĉ40) vs SNR (theory: +1 for QPSK)",
		"SNR (dB)", "original Ĉ40", "emulated Ĉ40")
	for i, snr := range r.SNRsDB {
		t.AddRowf(snr, r.OriginalC40[i], r.EmulatedC40[i])
	}
	return t
}

// Table4Result reproduces Table IV: averaged D²E per SNR per class, from
// the 50-waveform training runs.
type Table4Result struct {
	SNRsDB   []float64
	Original []float64
	Emulated []float64
	Samples  int
}

// Table4 averages D² over received waveforms per class per SNR. Defaults:
// the paper's {7, 12, 17} dB points at 50 waveforms each.
func Table4(cfg Config) (*Table4Result, error) {
	snrsDB := cfg.SNRsOr(7, 12, 17)
	samples := cfg.TrialsOr(50)
	d2o, d2e, err := distanceSamples(cfg.Seed, snrsDB, samples)
	if err != nil {
		return nil, err
	}
	res := &Table4Result{SNRsDB: snrsDB, Samples: samples}
	for i := range snrsDB {
		res.Original = append(res.Original, mean(d2o[i]))
		res.Emulated = append(res.Emulated, mean(d2e[i]))
	}
	return res, nil
}

// distanceSamples collects per-waveform D² values for both classes.
func distanceSamples(seed int64, snrsDB []float64, samples int) (orig, emul [][]float64, err error) {
	if samples < 1 {
		return nil, nil, fmt.Errorf("sim: samples %d < 1", samples)
	}
	link, err := firstLink()
	if err != nil {
		return nil, nil, err
	}
	k := twoClass[*victim, float64]{links: []*Link{link},
		victim: victimOf(zigbee.HardThreshold, emulation.DefenseConfig{}), measure: zigbeeD2, paired: true}
	orig = make([][]float64, len(snrsDB))
	emul = make([][]float64, len(snrsDB))
	for i, snr := range snrsDB {
		orig[i], emul[i], err = k.run(runner.Sweep{Seed: seed, Base: sweepBase(regionDistance, i)}, samples, awgnAt(snr))
		if err != nil {
			return nil, nil, err
		}
		if len(orig[i]) == 0 {
			return nil, nil, fmt.Errorf("sim: no successful receptions at %g dB", snr)
		}
	}
	return orig, emul, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Render emits the Table IV rows.
func (r *Table4Result) Render() *Table {
	t := NewTable(fmt.Sprintf("Table IV — Averaged D²E (%d waveforms/class/SNR)", r.Samples),
		"SNR (dB)", "ZigBee waveform", "Emulated waveform")
	for i, snr := range r.SNRsDB {
		t.AddRowf(snr, r.Original[i], r.Emulated[i])
	}
	return t
}

// Fig12Result reproduces Fig. 12: per-waveform D² for held-out test
// waveforms of both classes against the calibrated threshold.
type Fig12Result struct {
	SNRsDB []float64
	// Per-SNR summaries over the test waveforms.
	Original []emulation.SummarizeD2
	Emulated []emulation.SummarizeD2
	// Threshold calibrated from an independent training run (Sec. VII-B
	// trains on the first 50 waveforms).
	Threshold float64
	// Stats holds the resulting decisions.
	Stats emulation.DetectionStats
}

// Fig12 calibrates Q on cfg.Trials training waveforms (default 50), then
// evaluates cfg.Samples held-out waveforms (default: the training count)
// per class per SNR.
func Fig12(cfg Config) (*Fig12Result, error) {
	seed := cfg.Seed
	snrsDB := cfg.SNRsOr(11, 14, 17)
	train := cfg.TrialsOr(50)
	test := cfg.SamplesOr(train)
	trO, trE, err := distanceSamples(seed, snrsDB, train)
	if err != nil {
		return nil, err
	}
	var allTrO, allTrE []float64
	for i := range snrsDB {
		allTrO = append(allTrO, trO[i]...)
		allTrE = append(allTrE, trE[i]...)
	}
	q, cost, err := calib.FitBoundary(allTrO, allTrE)
	if err != nil {
		return nil, fmt.Errorf("sim: fig12 calibration: %w", err)
	}
	if cost > 0 {
		return nil, fmt.Errorf("sim: fig12 calibration: classes overlap (fit cost %.4f)", cost)
	}
	teO, teE, err := distanceSamples(seed+1, snrsDB, test)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{SNRsDB: snrsDB, Threshold: q}
	for i := range snrsDB {
		so, err := emulation.NewSummarizeD2(teO[i])
		if err != nil {
			return nil, err
		}
		se, err := emulation.NewSummarizeD2(teE[i])
		if err != nil {
			return nil, err
		}
		res.Original = append(res.Original, so)
		res.Emulated = append(res.Emulated, se)
		for _, d2 := range teO[i] {
			res.Stats.Score(false, d2 > q)
		}
		for _, d2 := range teE[i] {
			res.Stats.Score(true, d2 > q)
		}
	}
	return res, nil
}

// Render emits the Fig. 12 summary.
func (r *Fig12Result) Render() *Table {
	t := NewTable(fmt.Sprintf("Fig. 12 — Defense Performance (Q = %.4f, accuracy %.2f%%)",
		r.Threshold, 100*r.Stats.Accuracy()),
		"SNR (dB)", "ZigBee max D²", "ZigBee mean D²", "Emulated min D²", "Emulated mean D²")
	for i, snr := range r.SNRsDB {
		t.AddRowf(snr, r.Original[i].Max, r.Original[i].Mean, r.Emulated[i].Min, r.Emulated[i].Mean)
	}
	return t
}
