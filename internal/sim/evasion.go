package sim

import (
	"fmt"

	"hideseek/internal/channel"
	"hideseek/internal/emulation"
	"hideseek/internal/runner"
	"hideseek/internal/zigbee"
)

// EvasionResult asks the key security question the paper leaves open: can
// a more capable attacker shrink the defense's footprint below the
// detection threshold while still delivering a decodable frame? Each
// variant is an attacker strategy; the defense stays fixed.
type EvasionResult struct {
	Variants   []string
	MeanD2     []float64 // defense distance on the variant's waveform
	DecodeRate []float64 // victim decode success at the test SNR
	Detected   []bool    // mean D² above the default threshold?
	SNRdB      float64
	Trials     int
}

// Evasion evaluates attacker variants at one SNR (default 15 dB,
// 50 trials).
func Evasion(cfg Config) (*EvasionResult, error) {
	seed := cfg.Seed
	snrDB := cfg.SNROr(15)
	trials := cfg.TrialsOr(50)
	if trials < 1 {
		return nil, fmt.Errorf("sim: trials %d < 1", trials)
	}
	payload, obs, err := firstObservation()
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		cfg  emulation.AttackConfig
	}{
		{name: "paper attack (7 bins, 64-QAM)", cfg: emulation.AttackConfig{}},
		{name: "13 kept bins", cfg: emulation.AttackConfig{KeptSubcarriers: 13}},
		{name: "25 kept bins", cfg: emulation.AttackConfig{KeptSubcarriers: 25}},
		{name: "per-segment α", cfg: emulation.AttackConfig{PerSegmentAlpha: true}},
		{name: "no quantization (idealized)", cfg: emulation.AttackConfig{SkipQuantization: true}},
		{name: "16-QAM attacker", cfg: emulation.AttackConfig{QAMOrder: 16}},
	}
	// Threshold() is pure config — one detector outside the pool answers it.
	det, err := emulation.NewDetector(emulation.DefenseConfig{})
	if err != nil {
		return nil, err
	}
	type evasionTrial struct {
		d2      float64
		hasD2   bool
		decoded bool
	}
	res := &EvasionResult{SNRdB: snrDB, Trials: trials}
	for vi, v := range variants {
		em, err := emulation.NewEmulator(v.cfg)
		if err != nil {
			return nil, err
		}
		er, err := em.Emulate(obs)
		if err != nil {
			return nil, err
		}
		outcomes, err := runner.Map(pool(), runner.Sweep{Seed: seed, Base: sweepBase(regionEvasion, vi)}, trials,
			victimOf(zigbee.HardThreshold, emulation.DefenseConfig{}),
			func(t runner.Trial, w *victim) (evasionTrial, error) {
				ch, err := channel.NewAWGN(snrDB, t.RNG)
				if err != nil {
					return evasionTrial{}, err
				}
				rec, err := w.rx.Receive(ch.Apply(er.Emulated4M))
				if err != nil {
					return evasionTrial{}, nil
				}
				out := evasionTrial{decoded: payloadMatches(rec, payload)}
				verdict, err := w.det.AnalyzeReception(rec)
				if err != nil {
					return out, nil
				}
				out.d2 = verdict.DistanceSquared
				out.hasD2 = true
				return out, nil
			})
		if err != nil {
			return nil, err
		}
		var d2Sum float64
		d2Count, decoded := 0, 0
		for _, o := range outcomes {
			if o.decoded {
				decoded++
			}
			if o.hasD2 {
				d2Sum += o.d2
				d2Count++
			}
		}
		if d2Count == 0 {
			return nil, fmt.Errorf("sim: variant %q never produced a defensible reception", v.name)
		}
		mean := d2Sum / float64(d2Count)
		res.Variants = append(res.Variants, v.name)
		res.MeanD2 = append(res.MeanD2, mean)
		res.DecodeRate = append(res.DecodeRate, float64(decoded)/float64(trials))
		res.Detected = append(res.Detected, mean > det.Threshold())
	}
	return res, nil
}

// Render emits the evasion rows.
func (r *EvasionResult) Render() *Table {
	t := NewTable(fmt.Sprintf("Evasion — Attacker Variants vs Fixed Defense (SNR %.0f dB, %d trials)", r.SNRdB, r.Trials),
		"attacker variant", "decode rate", "mean D²", "detected")
	for i, v := range r.Variants {
		t.AddRowf(v, fmt.Sprintf("%.0f%%", 100*r.DecodeRate[i]), r.MeanD2[i], r.Detected[i])
	}
	return t
}
