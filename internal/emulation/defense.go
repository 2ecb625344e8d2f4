package emulation

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"sync"
	"time"

	"hideseek/internal/dsp"
	"hideseek/internal/hos"
	"hideseek/internal/zigbee"
)

// DefaultThreshold is Q in the hypothesis test: D²E below it means
// "authentic ZigBee transmitter", above it "WiFi attacker". The paper
// calibrates Q from training waveforms and lands on 0.5 for its USRP/GNU
// Radio pipeline (Sec. VII-C-4); the same calibration procedure
// (calib.FitBoundary) on this implementation's receiver front end lands
// on ≈0.2 — authentic waveforms sit at D² ≲ 0.06 and emulated ones at
// ≳ 0.35 across the 7–17 dB range, preserving the paper's order-of-
// magnitude separation at a different absolute operating point.
const DefaultThreshold = 0.2

// ChipSource selects which receiver tap feeds the defense.
type ChipSource int

// Chip sources, in decreasing order of distortion visibility.
const (
	// SourceDiscriminator (default) uses the FM quadrature-discriminator
	// chip stream — the GNU Radio receiver structure of the paper's
	// experiments. Waveform phase distortion appears here undiluted, and
	// the stream is inherently immune to a constant phase offset (the
	// discriminator differentiates it away); a carrier frequency offset
	// appears as a constant bias, removed by RemoveMean.
	SourceDiscriminator ChipSource = iota + 1
	// SourceRecovered uses the early–late clock-recovery loop's I/Q chip
	// samples. A channel phase offset rotates this constellation (the
	// paper's Fig. 6b), which is what the |C40| variant compensates.
	SourceRecovered
	// SourcePeak uses ideal-timing single samples at each pulse center.
	SourcePeak
	// SourceMatched uses full matched-filter outputs — maximal noise
	// rejection, minimal distortion visibility (the weakest defense input;
	// kept for the ablation benches).
	SourceMatched
)

// DefenseConfig parameterizes the detector.
type DefenseConfig struct {
	// Threshold is Q in Eq. (11); defaults to DefaultThreshold.
	Threshold float64
	// Source selects the receiver tap (default SourceDiscriminator).
	Source ChipSource
	// UseAbsC40 switches to |Ĉ40| for the real (frequency/phase offset)
	// scenario, Sec. VI-C. Meaningful for the I/Q sources; the
	// discriminator source is phase-offset-immune by construction.
	UseAbsC40 bool
	// RemoveMean subtracts the sample mean from the reconstructed
	// constellation before estimating cumulants — the discriminator-path
	// analogue of |C40|, cancelling the bias a carrier frequency offset
	// leaves on the frequency stream.
	RemoveMean bool
}

// minSamples guards against estimating cumulants from too few chips: 64,
// two ZigBee symbols.
const minSamples = 64

func (c *DefenseConfig) applyDefaults() error {
	if c.Threshold == 0 {
		c.Threshold = DefaultThreshold
	}
	if c.Threshold < 0 {
		return fmt.Errorf("emulation: negative threshold %v", c.Threshold)
	}
	if c.Source == 0 {
		c.Source = SourceDiscriminator
	}
	if c.Source < SourceDiscriminator || c.Source > SourceMatched {
		return fmt.Errorf("emulation: unknown chip source %d", c.Source)
	}
	return nil
}

// ChipsFromReception extracts the configured chip stream from a reception.
func ChipsFromReception(rec *zigbee.Reception, src ChipSource) ([]float64, error) {
	if rec == nil {
		return nil, fmt.Errorf("emulation: nil reception")
	}
	switch src {
	case SourceDiscriminator:
		if rec.DiscriminatorChips == nil {
			return nil, fmt.Errorf("emulation: reception has no discriminator chips")
		}
		return rec.DiscriminatorChips, nil
	case SourceRecovered:
		if rec.RecoveredChips == nil {
			return nil, fmt.Errorf("emulation: reception has no clock-recovered chips")
		}
		return rec.RecoveredChips.Soft, nil
	case SourcePeak:
		if rec.PeakChips == nil {
			return nil, fmt.Errorf("emulation: reception has no peak chips")
		}
		return rec.PeakChips, nil
	case SourceMatched:
		if rec.SoftChips == nil {
			return nil, fmt.Errorf("emulation: reception has no matched-filter chips")
		}
		return rec.SoftChips, nil
	default:
		return nil, fmt.Errorf("emulation: unknown chip source %d", src)
	}
}

// Detector is the constellation higher-order-statistics defense.
type Detector struct {
	cfg  DefenseConfig
	qpsk hos.Theoretical
}

// NewDetector validates the configuration and resolves the QPSK reference
// cumulants.
func NewDetector(cfg DefenseConfig) (*Detector, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	ref, err := hos.LookupTheoretical("QPSK")
	if err != nil {
		return nil, fmt.Errorf("emulation: %w", err)
	}
	return &Detector{cfg: cfg, qpsk: ref}, nil
}

// Verdict reports one detection decision.
type Verdict struct {
	// Cumulants are the normalized sample estimates.
	Cumulants hos.Cumulants
	// DistanceSquared is D²E = (Ĉ40−1)² + (Ĉ42+1)².
	DistanceSquared float64
	// Attack is true when DistanceSquared exceeds the threshold (H1).
	Attack bool
}

// ReconstructConstellation pairs the soft chip samples entering DSSS
// demodulation into complex QPSK points (paper Sec. VI-A-2: odd chips on
// one axis, even chips on the other) and derotates by π/4 so a clean
// O-QPSK transmission lands on the axis-aligned 4-PSK for which Table III
// lists C40 = +1.
func ReconstructConstellation(softChips []float64) ([]complex128, error) {
	if len(softChips) < 2 {
		return nil, fmt.Errorf("emulation: need at least one chip pair, got %d", len(softChips))
	}
	out := make([]complex128, len(softChips)/2)
	pairChips(out, softChips)
	return out, nil
}

// pairChips fills dst with ReconstructConstellation's points for
// softChips (len(dst) = len(softChips)/2).
func pairChips(dst []complex128, softChips []float64) {
	derot := cmplx.Rect(1, -math.Pi/4)
	for k := range dst {
		dst[k] = complex(softChips[2*k], softChips[2*k+1]) * derot
	}
}

// detectScratch is a pooled constellation workspace. Detector instances
// are shared across worker goroutines (the streaming tier hands one
// detector to every stream worker), so per-call scratch comes from a
// sync.Pool instead of detector fields.
type detectScratch struct {
	pts []complex128
}

var detectPool = sync.Pool{New: func() any { return new(detectScratch) }}

// Analyze runs the full defense on soft chip samples: constellation
// reconstruction → cumulant estimation → Voronoi distance → hypothesis
// test. The chip pairing runs in pooled scratch, so the caller's slice is
// never retained and the steady state allocates nothing.
func (d *Detector) Analyze(softChips []float64) (Verdict, error) {
	if len(softChips) < minSamples {
		return Verdict{}, fmt.Errorf("emulation: %d chip samples below minimum %d", len(softChips), minSamples)
	}
	s := detectPool.Get().(*detectScratch)
	defer detectPool.Put(s)
	pts := dsp.Grow(&s.pts, len(softChips)/2)
	pairChips(pts, softChips)
	return d.detectPoints(pts, true)
}

// AnalyzeReception extracts the configured chip source from a ZigBee
// reception and runs Analyze on it. It is safe to call on a
// scratch-backed Reception (from ReceiveAll or DecodeAt) — the chip
// stream is consumed before the call returns.
func (d *Detector) AnalyzeReception(rec *zigbee.Reception) (Verdict, error) {
	chips, err := ChipsFromReception(rec, d.cfg.Source)
	if err != nil {
		return Verdict{}, err
	}
	return d.Analyze(chips)
}

// AnalyzePoints runs the detector on an already-reconstructed
// constellation. The input slice is never mutated (mean removal, when
// configured, runs on a pooled copy).
func (d *Detector) AnalyzePoints(points []complex128) (Verdict, error) {
	if !d.cfg.RemoveMean {
		return d.detectPoints(points, false)
	}
	s := detectPool.Get().(*detectScratch)
	defer detectPool.Put(s)
	pts := dsp.Grow(&s.pts, len(points))
	copy(pts, points)
	return d.detectPoints(pts, true)
}

// detectPoints is the detection core. mutable says whether points may be
// modified in place (mean removal); callers passing borrowed slices must
// copy first or pass mutable=false.
func (d *Detector) detectPoints(points []complex128, mutable bool) (Verdict, error) {
	defer obsDetect.Since(time.Now())
	if d.cfg.RemoveMean && mutable {
		removeMeanInPlace(points)
	}
	est, err := hos.Estimate(points)
	if err != nil {
		return Verdict{}, fmt.Errorf("emulation: %w", err)
	}
	d2 := hos.FeatureDistance2(est, d.qpsk, d.cfg.UseAbsC40)
	return Verdict{
		Cumulants:       est,
		DistanceSquared: d2,
		Attack:          d2 > d.cfg.Threshold,
	}, nil
}

// Threshold returns the configured Q.
func (d *Detector) Threshold() float64 { return d.cfg.Threshold }

// CloneWithThreshold returns a detector identical to d except for its
// decision threshold — the re-thresholding primitive behind the online
// calibration stage (phy.DetectTuner). The QPSK reference cumulants are
// shared; the clone is as stateless and concurrency-safe as d.
func (d *Detector) CloneWithThreshold(t float64) (*Detector, error) {
	if t <= 0 {
		return nil, fmt.Errorf("emulation: threshold %v must be > 0", t)
	}
	clone := *d
	clone.cfg.Threshold = t
	return &clone, nil
}

// DetectionStats summarizes a batch of verdicts against ground truth.
type DetectionStats struct {
	TruePositives  int // attacks flagged
	FalseNegatives int // attacks missed
	TrueNegatives  int // authentic passed
	FalsePositives int // authentic flagged
}

// Accuracy returns the overall fraction of correct decisions.
func (s DetectionStats) Accuracy() float64 {
	total := s.TruePositives + s.FalseNegatives + s.TrueNegatives + s.FalsePositives
	if total == 0 {
		return 0
	}
	return float64(s.TruePositives+s.TrueNegatives) / float64(total)
}

// Score tallies one decision.
func (s *DetectionStats) Score(isAttack, flagged bool) {
	switch {
	case isAttack && flagged:
		s.TruePositives++
	case isAttack && !flagged:
		s.FalseNegatives++
	case !isAttack && flagged:
		s.FalsePositives++
	default:
		s.TrueNegatives++
	}
}

// SummarizeD2 reports min/mean/max of a batch of squared distances —
// the numbers plotted in Fig. 12 and tabulated in Tables IV/V.
type SummarizeD2 struct {
	Min, Mean, Max float64
	Median         float64
}

// NewSummarizeD2 computes the summary; the input must be non-empty.
func NewSummarizeD2(d2 []float64) (SummarizeD2, error) {
	if len(d2) == 0 {
		return SummarizeD2{}, fmt.Errorf("emulation: empty distance set")
	}
	sorted := append([]float64(nil), d2...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return SummarizeD2{
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   sum / float64(len(sorted)),
		Median: sorted[len(sorted)/2],
	}, nil
}

func removeMeanInPlace(points []complex128) {
	var mean complex128
	for _, p := range points {
		mean += p
	}
	mean /= complex(float64(len(points)), 0)
	for i, p := range points {
		points[i] = p - mean
	}
}
