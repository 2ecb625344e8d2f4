package sim

import (
	"fmt"

	"hideseek/internal/channel"
	"hideseek/internal/dsp"
	"hideseek/internal/emulation"
	"hideseek/internal/runner"
	"hideseek/internal/zigbee"
)

// AblationSubcarriersResult sweeps the number of preserved FFT bins — the
// design choice Sec. V-A-2 fixes at 7 (2 MHz / 0.3125 MHz).
type AblationSubcarriersResult struct {
	Kept        []int
	TailNMSE    []float64
	SuccessRate []float64
	SNRdB       float64
	Trials      int
}

// AblationSubcarriers measures emulation fidelity and attack success for
// different subcarrier budgets (nil kept: {3 … 13}; default 13 dB,
// 200 trials).
func AblationSubcarriers(cfg Config, kept []int) (*AblationSubcarriersResult, error) {
	seed := cfg.Seed
	snrDB := cfg.SNROr(13)
	trials := cfg.TrialsOr(200)
	if kept == nil {
		kept = []int{3, 5, 7, 9, 11, 13}
	}
	if trials < 1 {
		return nil, fmt.Errorf("sim: trials %d < 1", trials)
	}
	payload, obs, err := firstObservation()
	if err != nil {
		return nil, err
	}
	res := &AblationSubcarriersResult{Kept: kept, SNRdB: snrDB, Trials: trials}
	for ki, k := range kept {
		em, err := emulation.NewEmulator(emulation.AttackConfig{KeptSubcarriers: k})
		if err != nil {
			return nil, err
		}
		er, err := em.Emulate(obs)
		if err != nil {
			return nil, err
		}
		nmse, err := er.TailNMSE()
		if err != nil {
			return nil, err
		}
		res.TailNMSE = append(res.TailNMSE, nmse)

		hits, err := runner.Map(pool(), runner.Sweep{Seed: seed, Base: sweepBase(regionAblSubcarriers, ki)}, trials,
			func() (*zigbee.Receiver, error) {
				return zigbee.NewReceiver(zigbee.ReceiverConfig{SyncThreshold: 0.3})
			},
			func(t runner.Trial, rx *zigbee.Receiver) (bool, error) {
				ch, err := channel.NewAWGN(snrDB, t.RNG)
				if err != nil {
					return false, err
				}
				rec, err := rx.Receive(ch.Apply(er.Emulated4M))
				return err == nil && payloadMatches(rec, payload), nil
			})
		if err != nil {
			return nil, err
		}
		ok := 0
		for _, hit := range hits {
			if hit {
				ok++
			}
		}
		res.SuccessRate = append(res.SuccessRate, float64(ok)/float64(trials))
	}
	return res, nil
}

// Render emits the subcarrier ablation rows.
func (r *AblationSubcarriersResult) Render() *Table {
	t := NewTable(fmt.Sprintf("Ablation — Preserved Subcarriers (SNR %.0f dB, %d trials)", r.SNRdB, r.Trials),
		"kept bins", "tail NMSE", "attack success")
	for i, k := range r.Kept {
		t.AddRowf(k, r.TailNMSE[i], fmt.Sprintf("%.1f%%", 100*r.SuccessRate[i]))
	}
	return t
}

// AblationAlphaResult compares constellation-scaler strategies: the
// optimized global search of Eq. (4), per-segment re-optimization, fixed
// paper value √26, and a deliberately bad value.
type AblationAlphaResult struct {
	Strategies []string
	TailNMSE   []float64
	QuantError []float64
}

// AblationAlpha runs each strategy on the same observation. The experiment
// is deterministic; cfg is accepted for API uniformity.
func AblationAlpha(_ Config) (*AblationAlphaResult, error) {
	_, obs, err := firstObservation()
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name string
		cfg  emulation.AttackConfig
	}{
		{name: "global optimized", cfg: emulation.AttackConfig{}},
		{name: "per-segment optimized", cfg: emulation.AttackConfig{PerSegmentAlpha: true}},
		{name: "fixed α=√26 (paper)", cfg: emulation.AttackConfig{Alpha: emulation.AlphaGrid{Min: 5.0990, Max: 5.0991, Steps: 2}}},
		{name: "fixed α=20 (bad)", cfg: emulation.AttackConfig{Alpha: emulation.AlphaGrid{Min: 20, Max: 20.001, Steps: 2}}},
	}
	res := &AblationAlphaResult{}
	for _, c := range configs {
		em, err := emulation.NewEmulator(c.cfg)
		if err != nil {
			return nil, err
		}
		er, err := em.Emulate(obs)
		if err != nil {
			return nil, err
		}
		nmse, err := er.TailNMSE()
		if err != nil {
			return nil, err
		}
		res.Strategies = append(res.Strategies, c.name)
		res.TailNMSE = append(res.TailNMSE, nmse)
		res.QuantError = append(res.QuantError, er.QuantError)
	}
	return res, nil
}

// Render emits the α ablation rows.
func (r *AblationAlphaResult) Render() *Table {
	t := NewTable("Ablation — QAM Scaler Strategy (Eq. 4)",
		"strategy", "tail NMSE", "total quantization error")
	for i, s := range r.Strategies {
		t.AddRowf(s, r.TailNMSE[i], r.QuantError[i])
	}
	return t
}

// AblationInterpolationResult compares the attacker's sample-rate-
// conversion quality: the windowed-sinc polyphase interpolator vs cheap
// linear interpolation of the observed waveform.
type AblationInterpolationResult struct {
	Methods  []string
	TailNMSE []float64
}

// AblationInterpolation measures emulation fidelity for both interpolation
// methods. Linear interpolation distorts the observation before the FFT,
// raising the floor of everything downstream. Deterministic; cfg is
// accepted for API uniformity.
func AblationInterpolation(_ Config) (*AblationInterpolationResult, error) {
	_, obs, err := firstObservation()
	if err != nil {
		return nil, err
	}
	em, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		return nil, err
	}
	sincRes, err := em.Emulate(obs)
	if err != nil {
		return nil, err
	}
	sincNMSE, err := sincRes.TailNMSE()
	if err != nil {
		return nil, err
	}
	// Linear: pre-distort the observation by decimating a linear ×5
	// interpolation back down, then emulate. Fidelity is judged against
	// the SAME clean sinc-interpolated reference — measuring against the
	// linear pipeline's own distorted observation would hide its error.
	linUp, err := dsp.LinearInterpolate(obs, emulation.Interpolation)
	if err != nil {
		return nil, err
	}
	linDown, err := dsp.Decimate(linUp, emulation.Interpolation)
	if err != nil {
		return nil, err
	}
	linRes, err := em.Emulate(linDown)
	if err != nil {
		return nil, err
	}
	linNMSE, err := tailNMSEAgainst(linRes, sincRes.Observed20M)
	if err != nil {
		return nil, err
	}
	return &AblationInterpolationResult{
		Methods:  []string{"windowed-sinc ×5", "linear ×5"},
		TailNMSE: []float64{sincNMSE, linNMSE},
	}, nil
}

// tailNMSEAgainst measures a result's 3.2 µs-tail fidelity against an
// external clean reference at the 20 MS/s clock.
func tailNMSEAgainst(res *emulation.Result, reference []complex128) (float64, error) {
	n := len(res.Emulated20M)
	if len(reference) < n {
		n = len(reference)
	}
	const symbolSamples = 80
	const cpLen = 16
	var ref, errE float64
	for base := 0; base+symbolSamples <= n; base += symbolSamples {
		for i := base + cpLen; i < base+symbolSamples; i++ {
			d := res.Emulated20M[i] - reference[i]
			errE += real(d)*real(d) + imag(d)*imag(d)
			ref += real(reference[i])*real(reference[i]) + imag(reference[i])*imag(reference[i])
		}
	}
	if ref == 0 {
		return 0, fmt.Errorf("sim: zero-energy reference")
	}
	return errE / ref, nil
}

// Render emits the interpolation ablation rows.
func (r *AblationInterpolationResult) Render() *Table {
	t := NewTable("Ablation — Attacker Interpolation Method", "method", "tail NMSE")
	for i, m := range r.Methods {
		t.AddRowf(m, r.TailNMSE[i])
	}
	return t
}

// AblationCoarseThresholdResult sweeps the coarse-estimation highlight
// threshold of Sec. V-A-2 (the paper uses 3).
type AblationCoarseThresholdResult struct {
	Thresholds []float64
	// CorrectSelection is true when the two-step algorithm picked exactly
	// the in-band DC±3 bins.
	CorrectSelection []bool
	TailNMSE         []float64
}

// AblationCoarseThreshold runs the attack with different coarse thresholds
// (nil: the {0.5 … 30} sweep around the paper's value of 3).
func AblationCoarseThreshold(_ Config, thresholds []float64) (*AblationCoarseThresholdResult, error) {
	if thresholds == nil {
		thresholds = []float64{0.5, 1, 3, 8, 15, 30}
	}
	_, obs, err := firstObservation()
	if err != nil {
		return nil, err
	}
	want := map[int]bool{61: true, 62: true, 63: true, 0: true, 1: true, 2: true, 3: true}
	res := &AblationCoarseThresholdResult{Thresholds: thresholds}
	for _, th := range thresholds {
		em, err := emulation.NewEmulator(emulation.AttackConfig{CoarseThreshold: th})
		if err != nil {
			return nil, err
		}
		er, err := em.Emulate(obs)
		if err != nil {
			return nil, err
		}
		correct := len(er.Bins) == len(want)
		for _, k := range er.Bins {
			if !want[k] {
				correct = false
			}
		}
		nmse, err := er.TailNMSE()
		if err != nil {
			return nil, err
		}
		res.CorrectSelection = append(res.CorrectSelection, correct)
		res.TailNMSE = append(res.TailNMSE, nmse)
	}
	return res, nil
}

// Render emits the coarse-threshold ablation rows.
func (r *AblationCoarseThresholdResult) Render() *Table {
	t := NewTable("Ablation — Coarse Estimation Threshold (Sec. V-A-2, paper uses 3)",
		"threshold", "in-band selection", "tail NMSE")
	for i, th := range r.Thresholds {
		t.AddRowf(th, r.CorrectSelection[i], r.TailNMSE[i])
	}
	return t
}

// AblationDefenseSourceResult compares the four receiver taps as defense
// inputs, quantifying why the discriminator stream is the right choice.
type AblationDefenseSourceResult struct {
	Sources    []string
	Original   []float64 // mean D² authentic
	Emulated   []float64 // mean D² emulated
	Separation []float64 // emulated/original ratio
	SNRdB      float64
	Samples    int
}

// AblationDefenseSource measures mean D² per class for every chip source
// (default 15 dB, 50 samples).
func AblationDefenseSource(cfg Config) (*AblationDefenseSourceResult, error) {
	seed := cfg.Seed
	snrDB := cfg.SNROr(15)
	samples := cfg.TrialsOr(50)
	if samples < 1 {
		return nil, fmt.Errorf("sim: samples %d < 1", samples)
	}
	link, err := firstLink()
	if err != nil {
		return nil, err
	}
	sources := []struct {
		name string
		src  emulation.ChipSource
	}{
		{name: "discriminator", src: emulation.SourceDiscriminator},
		{name: "clock-recovered", src: emulation.SourceRecovered},
		{name: "peak-sampled", src: emulation.SourcePeak},
		{name: "matched-filter", src: emulation.SourceMatched},
	}
	res := &AblationDefenseSourceResult{SNRdB: snrDB, Samples: samples}
	for si, s := range sources {
		k := twoClass[*victim, float64]{links: []*Link{link}, measure: zigbeeD2, paired: true,
			victim: victimOf(zigbee.HardThreshold, emulation.DefenseConfig{Source: s.src})}
		orig, emul, err := k.run(runner.Sweep{Seed: seed, Base: sweepBase(regionAblDefenseSource, si)}, samples, awgnAt(snrDB))
		if err != nil {
			return nil, err
		}
		if len(orig) == 0 {
			return nil, fmt.Errorf("sim: no successful receptions for %s", s.name)
		}
		o, e := mean(orig), mean(emul)
		res.Sources = append(res.Sources, s.name)
		res.Original = append(res.Original, o)
		res.Emulated = append(res.Emulated, e)
		sep := 0.0
		if o > 0 {
			sep = e / o
		}
		res.Separation = append(res.Separation, sep)
	}
	return res, nil
}

// Render emits the defense-source ablation rows.
func (r *AblationDefenseSourceResult) Render() *Table {
	t := NewTable(fmt.Sprintf("Ablation — Defense Chip Source (SNR %.0f dB, %d samples)", r.SNRdB, r.Samples),
		"source", "authentic mean D²", "emulated mean D²", "separation ×")
	for i, s := range r.Sources {
		t.AddRowf(s, r.Original[i], r.Emulated[i], fmt.Sprintf("%.1f", r.Separation[i]))
	}
	return t
}

// AblationSampleCountResult sweeps the number of chip samples the defense
// estimates its cumulants from (packet-length sensitivity).
type AblationSampleCountResult struct {
	Counts   []int
	Original []emulation.SummarizeD2
	Emulated []emulation.SummarizeD2
	SNRdB    float64
	Trials   int
}

// AblationSampleCount truncates the chip stream to each count and measures
// the D² spread over trials (nil counts: {128 … 704}; default 15 dB,
// 50 trials).
func AblationSampleCount(cfg Config, counts []int) (*AblationSampleCountResult, error) {
	seed := cfg.Seed
	snrDB := cfg.SNROr(15)
	trials := cfg.TrialsOr(50)
	if counts == nil {
		counts = []int{128, 256, 384, 512, 704}
	}
	if trials < 1 {
		return nil, fmt.Errorf("sim: trials %d < 1", trials)
	}
	link, err := firstLink()
	if err != nil {
		return nil, err
	}
	res := &AblationSampleCountResult{Counts: counts, SNRdB: snrDB, Trials: trials}
	for ci, count := range counts {
		k := twoClass[*victim, float64]{links: []*Link{link}, paired: true,
			victim: victimOf(zigbee.HardThreshold, emulation.DefenseConfig{}),
			measure: func(v *victim, _ *Link, rx []complex128) (float64, bool) {
				rec, err := v.rx.Receive(rx)
				if err != nil {
					return 0, false
				}
				chips, err := emulation.ChipsFromReception(rec, emulation.SourceDiscriminator)
				if err != nil || len(chips) < count {
					return 0, false
				}
				vd, err := v.det.Analyze(chips[:count])
				return vd.DistanceSquared, err == nil
			}}
		d2o, d2e, err := k.run(runner.Sweep{Seed: seed, Base: sweepBase(regionAblSampleCount, ci)}, trials, awgnAt(snrDB))
		if err != nil {
			return nil, err
		}
		so, err := emulation.NewSummarizeD2(d2o)
		if err != nil {
			return nil, fmt.Errorf("sim: sample count %d: %w", count, err)
		}
		se, err := emulation.NewSummarizeD2(d2e)
		if err != nil {
			return nil, fmt.Errorf("sim: sample count %d: %w", count, err)
		}
		res.Original = append(res.Original, so)
		res.Emulated = append(res.Emulated, se)
	}
	return res, nil
}

// Render emits the sample-count ablation rows.
func (r *AblationSampleCountResult) Render() *Table {
	t := NewTable(fmt.Sprintf("Ablation — Defense Sample Count (SNR %.0f dB, %d trials)", r.SNRdB, r.Trials),
		"chip samples", "authentic max D²", "emulated min D²", "separable")
	for i, c := range r.Counts {
		sep := "no"
		if r.Original[i].Max < r.Emulated[i].Min {
			sep = "yes"
		}
		t.AddRowf(c, r.Original[i].Max, r.Emulated[i].Min, sep)
	}
	return t
}
