package lora

import "fmt"

// DefaultThreshold is the off-peak-ratio decision boundary separating
// authentic chirps from WiFi-emulated ones. An authentic symbol at SNR γ
// concentrates all but ≈ 1/(1+γ) of its dechirped energy into one FFT
// bin, so captures at the paper's link SNRs sit far below this bound; an
// emulated chirp carries the quantization and cyclic-prefix-seam error of
// the 64-subcarrier approximation, which the dechirp spreads across the
// full band and which empirically lands an order of magnitude above it.
const DefaultThreshold = 0.05

// DefaultRealEnvThreshold is the decision boundary for the wide-peak
// (real-environment) statistic. Under the demo impairment chain (3-tap
// Rician multipath with 2 µs delay spread, Doppler phase noise, 100 Hz
// CFO) the single-bin concentration collapses for authentic chirps too —
// the delay spread alone smears the dechirped tone across ±2 chips. The
// peak±1-bin window restores the separation: across 20 seeds at 15–30 dB
// SNR authentic frames stay below 0.16 while emulated ones stay above
// 0.22, so the midpoint 0.2 splits the classes with margin. Below ≈13 dB
// the classes overlap and a calibrated per-deployment threshold (or the
// ROC sweep in internal/sim) is required.
const DefaultRealEnvThreshold = 0.2

// Verdict is the defense's decision for one frame — the LoRa analogue of
// the ZigBee cumulant verdict, with the dechirp off-peak energy ratio
// standing in for the modulation-cumulant distance D².
type Verdict struct {
	// DistanceSquared is the mean per-symbol off-peak energy ratio
	// mean(1 − E_peak/E_total): zero for an ideal chirp, inflated by the
	// structured distortion of WiFi emulation.
	DistanceSquared float64
	// Symbols is the number of symbols averaged.
	Symbols int
	// Attack is true when DistanceSquared exceeds the threshold.
	Attack bool
}

// Detector classifies receptions as authentic or emulated from their
// per-symbol spectral concentration. The zero value is NOT ready; use
// NewDetector. Detectors are stateless and safe for concurrent use.
type Detector struct {
	cfg DetectorConfig
}

// DetectorConfig parameterizes a Detector.
type DetectorConfig struct {
	// Threshold is the off-peak-ratio decision boundary. Defaults to
	// DefaultThreshold, or DefaultRealEnvThreshold when WidePeak is set.
	Threshold float64
	// WidePeak measures off-peak energy outside the peak bin ±1 instead
	// of outside the single peak bin, tolerating the multipath delay
	// spread and residual CFO of real channels that smear an authentic
	// tone into adjacent bins (the lora analogue of the zigbee defense's
	// RemoveMean/UseAbsC40 real-environment mode). Emulation distortion
	// is broadband, so it still lands outside the widened window.
	WidePeak bool
}

// NewDetector builds a detector, applying config defaults.
func NewDetector(cfg DetectorConfig) (*Detector, error) {
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
		if cfg.WidePeak {
			cfg.Threshold = DefaultRealEnvThreshold
		}
	}
	if cfg.Threshold < 0 || cfg.Threshold >= 1 {
		return nil, fmt.Errorf("lora: detector threshold %v outside (0, 1)", cfg.Threshold)
	}
	return &Detector{cfg: cfg}, nil
}

// Threshold reports the configured decision boundary.
func (d *Detector) Threshold() float64 { return d.cfg.Threshold }

// CloneWithThreshold returns a detector identical to d except for its
// decision boundary — the re-thresholding primitive behind the online
// calibration stage (phy.DetectTuner). Same validity range as
// NewDetector.
func (d *Detector) CloneWithThreshold(t float64) (*Detector, error) {
	if t <= 0 || t >= 1 {
		return nil, fmt.Errorf("lora: detector threshold %v outside (0, 1)", t)
	}
	clone := *d
	clone.cfg.Threshold = t
	return &clone, nil
}

// AnalyzeReception classifies one decoded frame.
func (d *Detector) AnalyzeReception(rec *Reception) (Verdict, error) {
	if rec == nil || len(rec.Concentrations) == 0 {
		return Verdict{}, fmt.Errorf("lora: no demodulated symbols to analyze")
	}
	conc := rec.Concentrations
	if d.cfg.WidePeak {
		if len(rec.WideConcentrations) != len(rec.Concentrations) {
			return Verdict{}, fmt.Errorf("lora: reception carries no wide-peak concentrations")
		}
		conc = rec.WideConcentrations
	}
	var off float64
	for _, c := range conc {
		off += 1 - c
	}
	v := Verdict{
		DistanceSquared: off / float64(len(conc)),
		Symbols:         len(conc),
	}
	v.Attack = v.DistanceSquared > d.cfg.Threshold
	return v, nil
}
