package sim

import (
	"fmt"
	"math/rand"

	"hideseek/internal/calib"
	"hideseek/internal/channel"
	"hideseek/internal/emulation"
	"hideseek/internal/runner"
	"hideseek/internal/zigbee"
)

// calibPhase is one operating condition of a drift scenario: the CSV
// label plus the impairment parameters every trial of the phase runs
// through. Phase 0 of a scenario is the warmup condition — the fixed
// detector's threshold is fit there and never moves again, while the
// adaptive detector refits at every phase (the offline analogue of the
// streaming Calibrator re-arming after a drift alarm).
type calibPhase struct {
	label  string
	snrDB  float64
	cfoHz  float64
	sroPPM float64
}

// chain assembles the phase's channel for one trial: the deterministic
// oscillator impairments (CFO rotation, sample-rate skew) followed by
// AWGN at the phase SNR.
func (p calibPhase) chain(rng *rand.Rand) (channel.Channel, error) {
	var stages []channel.Channel
	if p.cfoHz != 0 {
		cfo, err := channel.NewCFO(p.cfoHz, zigbee.SampleRate, 0)
		if err != nil {
			return nil, err
		}
		stages = append(stages, cfo)
	}
	if p.sroPPM != 0 {
		sro, err := channel.NewSampleRateOffset(p.sroPPM)
		if err != nil {
			return nil, err
		}
		stages = append(stages, sro)
	}
	awgn, err := channel.NewAWGN(p.snrDB, rng)
	if err != nil {
		return nil, err
	}
	stages = append(stages, awgn)
	return channel.NewChain(stages...)
}

// calibScenario is one drift trajectory the calib-roc experiment walks.
type calibScenario struct {
	name   string
	phases []calibPhase
}

// calibScenarios returns the two drift trajectories the ROADMAP calls
// out. slow-fade models a deep slow fade as the received-SNR envelope
// decaying from the calibration point toward the defense's low-SNR edge:
// the authentic D² floor 1/(1+γ) climbs toward the warmup-era boundary.
// cfo-ramp models an attacker platform whose oscillator impairments were
// present during warmup and then settle out (re-lock after a warm-up
// transient): the emulated D² population slides DOWN toward the fixed
// boundary, eroding the detection margin from the other side.
func calibScenarios() []calibScenario {
	return []calibScenario{
		{name: "slow-fade", phases: []calibPhase{
			{label: "snr=17dB", snrDB: 17},
			{label: "snr=13dB", snrDB: 13},
			{label: "snr=9dB", snrDB: 9},
			{label: "snr=5dB", snrDB: 5},
		}},
		{name: "cfo-ramp", phases: []calibPhase{
			{label: "cfo=300Hz sro=800ppm", snrDB: 14, cfoHz: 300, sroPPM: 800},
			{label: "cfo=200Hz sro=300ppm", snrDB: 14, cfoHz: 200, sroPPM: 300},
			{label: "cfo=100Hz sro=150ppm", snrDB: 14, cfoHz: 100, sroPPM: 150},
			{label: "cfo=0Hz sro=0ppm", snrDB: 14},
		}},
	}
}

// CalibROCPhase is one scored phase: both detectors' thresholds and
// operating points on the phase's held-out evaluation set.
type CalibROCPhase struct {
	Scenario    string
	Phase       string
	FixedQ      float64
	AdaptiveQ   float64
	FixedTPR    float64
	FixedFPR    float64
	AdaptiveTPR float64
	AdaptiveFPR float64
	AuthN       int
	EmulN       int
}

// FixedErr and AdaptiveErr are the balanced error rates
// (miss + false-alarm)/2 of each detector at this phase.
func (p CalibROCPhase) FixedErr() float64 { return ((1 - p.FixedTPR) + p.FixedFPR) / 2 }

// AdaptiveErr is the balanced error rate of the refit detector.
func (p CalibROCPhase) AdaptiveErr() float64 { return ((1 - p.AdaptiveTPR) + p.AdaptiveFPR) / 2 }

// CalibROCResult is the fixed-Q vs adaptive-Q comparison across both
// drift scenarios.
type CalibROCResult struct {
	Phases []CalibROCPhase
	Trials int
}

// calibD2Samples collects one (phase, set) pair of labeled D² samples:
// each trial pushes the authentic and emulated waveforms through a fresh
// channel realization and analyzes whatever the receiver recovers.
// Receptions the victim cannot decode at all drop out of the sample set,
// exactly as they would never reach the streaming calibrator.
func calibD2Samples(seed int64, link *Link, point, trials int, ph calibPhase) (auth, emul []float64, err error) {
	k := twoClass[*victim, float64]{links: []*Link{link},
		victim: victimOf(zigbee.HardThreshold, emulation.DefenseConfig{}),
		measure: func(v *victim, l *Link, rx []complex128) (float64, bool) {
			return zigbeeD2(v, l, padTail(rx, 8))
		}}
	return k.run(runner.Sweep{Seed: seed, Base: sweepBase(regionCalibROC, point)}, trials, ph.chain)
}

// CalibROC walks both drift scenarios and scores a fixed-Q detector
// (boundary fit once, at each scenario's warmup phase) against an
// adaptive detector (boundary refit from the phase's own labeled
// calibration set — the offline analogue of the internal/calib drift →
// re-arm → refit cycle) on held-out evaluation sets. Both boundaries come
// from calib.FitBoundary, so the comparison isolates WHEN the fit
// happens, not how. Default: 30 trials per (phase, set).
func CalibROC(cfg Config) (*CalibROCResult, error) {
	trials := cfg.TrialsOr(30)
	if trials < 1 {
		return nil, fmt.Errorf("sim: trials %d must be positive", trials)
	}
	link, err := firstLink()
	if err != nil {
		return nil, err
	}

	res := &CalibROCResult{Trials: trials}
	for si, sc := range calibScenarios() {
		var fixedQ float64
		for pi, ph := range sc.phases {
			// Disjoint salt points per (scenario, phase, fit/eval set).
			point := si*64 + pi*2
			fitA, fitE, err := calibD2Samples(cfg.Seed, link, point, trials, ph)
			if err != nil {
				return nil, err
			}
			evalA, evalE, err := calibD2Samples(cfg.Seed, link, point+1, trials, ph)
			if err != nil {
				return nil, err
			}
			adaptiveQ, _, err := calib.FitBoundary(fitA, fitE)
			if err != nil {
				return nil, fmt.Errorf("sim: %s %s: %w", sc.name, ph.label, err)
			}
			if pi == 0 {
				fixedQ = adaptiveQ
			}
			row := CalibROCPhase{
				Scenario:  sc.name,
				Phase:     ph.label,
				FixedQ:    fixedQ,
				AdaptiveQ: adaptiveQ,
				AuthN:     len(evalA),
				EmulN:     len(evalE),
			}
			row.FixedTPR, row.FixedFPR = calibOperatingPoint(evalA, evalE, fixedQ)
			row.AdaptiveTPR, row.AdaptiveFPR = calibOperatingPoint(evalA, evalE, adaptiveQ)
			res.Phases = append(res.Phases, row)
		}
	}
	return res, nil
}

// calibOperatingPoint scores one threshold on labeled evaluation samples.
func calibOperatingPoint(auth, emul []float64, q float64) (tpr, fpr float64) {
	if len(emul) > 0 {
		tp := 0
		for _, d := range emul {
			if d > q {
				tp++
			}
		}
		tpr = float64(tp) / float64(len(emul))
	}
	if len(auth) > 0 {
		fp := 0
		for _, d := range auth {
			if d > q {
				fp++
			}
		}
		fpr = float64(fp) / float64(len(auth))
	}
	return tpr, fpr
}

// Render emits one row per (scenario, phase).
func (r *CalibROCResult) Render() *Table {
	t := NewTable(fmt.Sprintf("Calibration ROC — Fixed vs Drift-Adaptive Q (%d trials/set)", r.Trials),
		"scenario", "phase", "fixed Q", "adaptive Q", "fixed err", "adaptive err")
	for _, p := range r.Phases {
		t.AddRowf(p.Scenario, p.Phase, p.FixedQ, p.AdaptiveQ, p.FixedErr(), p.AdaptiveErr())
	}
	return t
}

// SeriesCSV exposes the full operating points (the committed golden).
func (r *CalibROCResult) SeriesCSV() (string, error) { return r.CSV(), nil }

// CSV dumps every phase's thresholds and operating points.
func (r *CalibROCResult) CSV() string {
	out := "scenario,phase,fixed_q,adaptive_q,fixed_tpr,fixed_fpr,adaptive_tpr,adaptive_fpr\n"
	for _, p := range r.Phases {
		out += fmt.Sprintf("%s,%s,%.6f,%.6f,%g,%g,%g,%g\n",
			p.Scenario, p.Phase, p.FixedQ, p.AdaptiveQ,
			p.FixedTPR, p.FixedFPR, p.AdaptiveTPR, p.AdaptiveFPR)
	}
	return out
}
