// Package emulation implements the paper's core contribution: the CTC
// waveform emulation attack (a WiFi OFDM transmitter reproducing an
// observed ZigBee waveform, Sec. V) and the constellation higher-order
// statistics defense that detects it (Sec. VI), together with the
// candidate defenses the paper analyzes and rejects (cyclic-prefix
// repetition, OQPSK frequency output, chip sequences — Sec. VI-A-1).
package emulation

import (
	"fmt"
	"math"
	"time"

	"hideseek/internal/dsp"
	"hideseek/internal/wifi"
	"hideseek/internal/zigbee"
)

// Interpolation lifts the 4 MS/s ZigBee capture to WiFi's 20 MS/s clock:
// 80 samples per 4 µs WiFi symbol, matching the paper's "interpolate the
// ZigBee waveform with parameter 5".
const Interpolation = int(wifi.SampleRate / zigbee.SampleRate)

// DefaultKeptSubcarriers is the number of FFT bins the attacker preserves:
// 2 MHz ≈ 7 × 0.3125 MHz.
const DefaultKeptSubcarriers = 7

// DefaultSubcarrierIndices are the 7 FFT bins covering the ZigBee band when
// the capture is at complex baseband: DC±3 bins ≡ the paper's Table I
// selection of (1-based) indexes 1–4 and 62–64.
var DefaultSubcarrierIndices = []int{61, 62, 63, 0, 1, 2, 3}

// AttackConfig parameterizes the emulator.
type AttackConfig struct {
	// KeptSubcarriers is how many FFT bins survive (default 7). Ignored
	// when SubcarrierIndices is set explicitly.
	KeptSubcarriers int
	// SubcarrierIndices optionally pins the kept FFT bins (0..63). When
	// nil, the two-step estimation algorithm of Sec. V-A-2 chooses them
	// from the observed waveform.
	SubcarrierIndices []int
	// QAMOrder of the attacking transmitter (default 64-QAM).
	QAMOrder wifi.QAMOrder
	// Alpha optimization grid; zero values select defaults.
	Alpha AlphaGrid
	// PerSegmentAlpha re-optimizes the constellation scaler for every WiFi
	// symbol instead of once for the whole capture (ablation knob; the
	// paper uses one global α = √26).
	PerSegmentAlpha bool
	// CoarseThreshold is the magnitude above which a frequency component is
	// "highlighted" during coarse estimation (default 3, as in Table I).
	CoarseThreshold float64
	// SkipQuantization bypasses 64-QAM quantization and transmits the raw
	// frequency points — an upper bound used by the ablation benches.
	SkipQuantization bool
}

func (c *AttackConfig) applyDefaults() error {
	if c.KeptSubcarriers == 0 {
		c.KeptSubcarriers = DefaultKeptSubcarriers
	}
	if c.KeptSubcarriers < 1 || c.KeptSubcarriers > wifi.NumDataSubcarriers {
		return fmt.Errorf("emulation: kept subcarriers %d outside [1, %d]", c.KeptSubcarriers, wifi.NumDataSubcarriers)
	}
	for _, k := range c.SubcarrierIndices {
		if k < 0 || k >= wifi.NumSubcarriers {
			return fmt.Errorf("emulation: FFT bin %d outside [0, %d)", k, wifi.NumSubcarriers)
		}
	}
	if c.QAMOrder == 0 {
		c.QAMOrder = wifi.QAM64
	}
	if c.CoarseThreshold == 0 {
		c.CoarseThreshold = 3
	}
	if c.CoarseThreshold < 0 {
		return fmt.Errorf("emulation: negative coarse threshold %v", c.CoarseThreshold)
	}
	c.Alpha.applyDefaults()
	return c.Alpha.validate()
}

// Emulator runs the waveform emulation attack of Sec. V.
//
// An Emulator reuses internal interpolation/spectral scratch buffers across
// Emulate calls and is therefore NOT safe for concurrent use; give each
// worker goroutine its own instance (the runner package's per-worker
// scratch hook exists for exactly this). Result fields are always freshly
// allocated and never alias the scratch.
type Emulator struct {
	cfg           AttackConfig
	constellation *wifi.Constellation
	interp        *dsp.Interpolator
	dec           *dsp.Decimator
	// Emulate scratch, grown on demand:
	up      []complex128 // interpolated + symbol-padded observation
	specBuf []complex128 // numSegments × 64 per-segment tail spectra
	chosen  []complex128 // numSegments × len(bins) kept frequency points
	symSpec []complex128 // 64-bin spectrum under synthesis
}

// NewEmulator validates the configuration and builds the attack pipeline.
func NewEmulator(cfg AttackConfig) (*Emulator, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	constellation, err := wifi.NewConstellation(cfg.QAMOrder)
	if err != nil {
		return nil, fmt.Errorf("emulation: %w", err)
	}
	interp, err := dsp.NewInterpolator(Interpolation, 16)
	if err != nil {
		return nil, fmt.Errorf("emulation: %w", err)
	}
	dec, err := dsp.NewDecimator(Interpolation)
	if err != nil {
		return nil, fmt.Errorf("emulation: %w", err)
	}
	return &Emulator{cfg: cfg, constellation: constellation, interp: interp, dec: dec}, nil
}

// Result captures the emulated waveform and the attack's internal state for
// analysis.
type Result struct {
	// Emulated20M is the WiFi-rate (20 MS/s) emulated waveform:
	// NumSegments × 80 samples, each an OFDM symbol with cyclic prefix.
	Emulated20M []complex128
	// Emulated4M is the same waveform decimated back to the ZigBee
	// receiver's 4 MS/s clock (what the victim actually processes).
	Emulated4M []complex128
	// Observed20M is the interpolated observation, for fidelity comparison.
	Observed20M []complex128
	// Bins are the FFT bins that were preserved.
	Bins []int
	// Alphas holds the constellation scaler per segment (a single repeated
	// value unless PerSegmentAlpha).
	Alphas []float64
	// QAMPoints holds, per segment, the quantized constellation points in
	// bin order (nil when SkipQuantization). The segments share one backing
	// array; each is capped, so appending to one copies it.
	QAMPoints [][]complex128
	// QuantError is the total squared QAM quantization error (Eq. 4's
	// objective at the optimum).
	QuantError float64
	// NumSegments is the number of WiFi symbols produced.
	NumSegments int
}

// Emulate runs the attack on an observed 4 MS/s ZigBee waveform. The
// observation is interpolated ×5, cut into 80-sample (4 µs) segments, and
// each segment is re-synthesized as a WiFi OFDM symbol: CP-drop → 64-FFT →
// keep 7 bins → QAM-quantize with optimal α → IFFT → CP-add.
func (e *Emulator) Emulate(observed []complex128) (*Result, error) {
	defer obsEmulate.Since(time.Now())
	if len(observed) == 0 {
		return nil, fmt.Errorf("emulation: empty observation")
	}
	// Interpolate into the reusable scratch, padded to whole WiFi symbols.
	n := len(observed) * Interpolation
	total := n
	if rem := total % wifi.SymbolSamples; rem != 0 {
		total += wifi.SymbolSamples - rem
	}
	if cap(e.up) < total {
		e.up = make([]complex128, total)
	}
	up := e.up[:total]
	e.interp.ProcessInto(up[:n], observed)
	for i := n; i < total; i++ {
		up[i] = 0
	}
	numSegments := total / wifi.SymbolSamples

	// Per-segment spectra of the 3.2 µs tails (the CP position is dropped),
	// packed into one flat scratch buffer.
	if cap(e.specBuf) < numSegments*wifi.NumSubcarriers {
		e.specBuf = make([]complex128, numSegments*wifi.NumSubcarriers)
	}
	segSpec := func(s int) []complex128 {
		return e.specBuf[s*wifi.NumSubcarriers : (s+1)*wifi.NumSubcarriers]
	}
	for s := 0; s < numSegments; s++ {
		seg := up[s*wifi.SymbolSamples : (s+1)*wifi.SymbolSamples]
		if err := wifi.AnalyzeSymbolInto(segSpec(s), seg); err != nil {
			return nil, fmt.Errorf("emulation: segment %d: %w", s, err)
		}
	}

	bins := e.cfg.SubcarrierIndices
	if bins == nil {
		est := NewSubcarrierEstimator(e.cfg.CoarseThreshold, e.cfg.KeptSubcarriers)
		for s := 0; s < numSegments; s++ {
			est.Observe(segSpec(s))
		}
		var err error
		bins, err = est.Select()
		if err != nil {
			return nil, fmt.Errorf("emulation: %w", err)
		}
	}

	res := &Result{
		Observed20M: append([]complex128(nil), up...), // up is scratch; copy
		Bins:        append([]int(nil), bins...),
		NumSegments: numSegments,
		Emulated20M: make([]complex128, numSegments*wifi.SymbolSamples),
	}

	// Collect the chosen frequency points for α optimization, packed flat so
	// the global pass can see all of them without re-gathering.
	if cap(e.chosen) < numSegments*len(bins) {
		e.chosen = make([]complex128, numSegments*len(bins))
	}
	chosen := func(s int) []complex128 {
		return e.chosen[s*len(bins) : (s+1)*len(bins)]
	}
	for s := 0; s < numSegments; s++ {
		spec, pts := segSpec(s), chosen(s)
		for i, k := range bins {
			pts[i] = spec[k]
		}
	}
	// The spectra are spent; their buffer, at least as long as the kept
	// points, is OptimizeAlpha's level-pinning scratch from here on.
	pinScratch := e.specBuf

	var globalAlpha float64
	if !e.cfg.PerSegmentAlpha && !e.cfg.SkipQuantization {
		var err error
		globalAlpha, _, err = optimizeAlpha(e.constellation, e.chosen[:numSegments*len(bins)], e.cfg.Alpha, pinScratch)
		if err != nil {
			return nil, fmt.Errorf("emulation: %w", err)
		}
	}

	if cap(e.symSpec) < wifi.NumSubcarriers {
		e.symSpec = make([]complex128, wifi.NumSubcarriers)
	}
	res.Alphas = make([]float64, 0, numSegments)
	var qamBuf []complex128 // every QAMPoints segment, carved below
	if !e.cfg.SkipQuantization {
		res.QAMPoints = make([][]complex128, 0, numSegments)
		qamBuf = make([]complex128, numSegments*len(bins))
	}
	for s := 0; s < numSegments; s++ {
		spec := e.symSpec[:wifi.NumSubcarriers]
		for i := range spec {
			spec[i] = 0
		}
		var segPts []complex128
		alpha := globalAlpha
		switch {
		case e.cfg.SkipQuantization:
			segPts = chosen(s)
			alpha = 0
		case e.cfg.PerSegmentAlpha:
			var err error
			alpha, _, err = optimizeAlpha(e.constellation, chosen(s), e.cfg.Alpha, pinScratch)
			if err != nil {
				return nil, fmt.Errorf("emulation: segment %d: %w", s, err)
			}
			fallthrough
		default:
			segPts = qamBuf[s*len(bins) : (s+1)*len(bins) : (s+1)*len(bins)]
			for i, v := range chosen(s) {
				q, errSq := e.constellation.Quantize(v, alpha)
				segPts[i] = q
				res.QuantError += errSq
			}
		}
		for i, k := range bins {
			spec[k] = segPts[i]
		}
		sym := res.Emulated20M[s*wifi.SymbolSamples : (s+1)*wifi.SymbolSamples]
		if err := wifi.SynthesizeSymbolInto(sym, spec); err != nil {
			return nil, fmt.Errorf("emulation: segment %d: %w", s, err)
		}
		res.Alphas = append(res.Alphas, alpha)
		if !e.cfg.SkipQuantization {
			res.QAMPoints = append(res.QAMPoints, segPts)
		}
	}

	res.Emulated4M = e.dec.Process(res.Emulated20M)
	return res, nil
}

// TailNMSE measures the emulation fidelity over the 3.2 µs tails only (the
// CP region is wrong by construction — Fig. 5 shows exactly this split).
func (r *Result) TailNMSE() (float64, error) {
	if len(r.Emulated20M) != len(r.Observed20M) {
		return 0, fmt.Errorf("emulation: length mismatch %d vs %d", len(r.Emulated20M), len(r.Observed20M))
	}
	var ref, errE float64
	for s := 0; s < r.NumSegments; s++ {
		base := s * wifi.SymbolSamples
		for i := base + wifi.CPLength; i < base+wifi.SymbolSamples; i++ {
			d := r.Emulated20M[i] - r.Observed20M[i]
			errE += real(d)*real(d) + imag(d)*imag(d)
			ref += real(r.Observed20M[i])*real(r.Observed20M[i]) + imag(r.Observed20M[i])*imag(r.Observed20M[i])
		}
	}
	if ref == 0 {
		return 0, fmt.Errorf("emulation: zero-energy reference")
	}
	return errE / ref, nil
}

// AlphaGrid bounds the numerical global search for the constellation
// scaler α in Eq. (4).
type AlphaGrid struct {
	Min, Max float64
	Steps    int
}

func (g *AlphaGrid) applyDefaults() {
	if g.Min == 0 && g.Max == 0 {
		g.Min, g.Max = 0.1, 40
	}
	if g.Steps == 0 {
		g.Steps = 400
	}
}

func (g AlphaGrid) validate() error {
	if g.Min <= 0 || g.Max <= g.Min {
		return fmt.Errorf("emulation: alpha grid [%v, %v] invalid", g.Min, g.Max)
	}
	if g.Steps < 2 {
		return fmt.Errorf("emulation: alpha grid needs ≥ 2 steps, got %d", g.Steps)
	}
	return nil
}

// OptimizeAlpha solves Eq. (4): a coarse grid search followed by one
// refinement pass around the best cell, minimizing the total squared
// distance between the chosen frequency points and the α-scaled QAM grid.
// It returns the first grid candidate with the least error, as an
// exhaustive scan would, but prunes the work:
//
//   - A candidate's running error sum never falls (every term is ≥ 0), so
//     it stops as soon as it reaches the best error so far; it could not
//     win the strict < anyway.
//   - The coarse pass first scores the candidate nearest the RMS-matched
//     scaler and also stops candidates whose sum passes that score. The
//     first candidate at the minimum never does, so ties keep going to
//     the lowest index.
//   - In the refine pass, x/α is monotone in α, so a point whose QAM
//     level is the same at both ends of the interval keeps it throughout
//     and skips the level choice.
func OptimizeAlpha(c *wifi.Constellation, points []complex128, grid AlphaGrid) (alpha, totalErr float64, err error) {
	return optimizeAlpha(c, points, grid, nil)
}

// optimizeAlpha is OptimizeAlpha with a caller's buffer for the pinned
// levels, used when its capacity holds one entry per point.
func optimizeAlpha(c *wifi.Constellation, points []complex128, grid AlphaGrid, pin []complex128) (alpha, totalErr float64, err error) {
	grid.applyDefaults()
	if err := grid.validate(); err != nil {
		return 0, 0, err
	}
	if len(points) == 0 {
		return 0, 0, fmt.Errorf("emulation: no points to quantize")
	}
	step := (grid.Max - grid.Min) / float64(grid.Steps-1)

	// Seed the bound with the candidate nearest the RMS-matched scaler
	// α₀ = sqrt(mean|v|² / mean|level|²). Starting bestErr one ulp above
	// its error keeps the strict < rule: the first candidate at the
	// minimum (≤ the seed's error) still wins, and the seed itself is a
	// candidate, so some candidate does. A NaN seed error bounds nothing.
	var power float64
	for _, v := range points {
		power += real(v)*real(v) + imag(v)*imag(v)
	}
	seed := 0
	if f := math.Round((math.Sqrt(power/float64(len(points)))*c.Norm() - grid.Min) / step); f > 0 {
		seed = int(min(f, float64(grid.Steps-1)))
	}
	best, bestErr := grid.Min, math.Inf(1)
	if e := c.QuantizeErrorSum(points, grid.Min+float64(seed)*step); !math.IsNaN(e) {
		bestErr = math.Nextafter(e, math.Inf(1))
	}
	for i := 0; i < grid.Steps; i++ {
		a := grid.Min + float64(i)*step
		if e := c.QuantizeErrorSumBelow(points, nil, a, bestErr); e < bestErr {
			best, bestErr = a, e
		}
	}
	// Refine one level around the winner.
	lo := math.Max(grid.Min, best-step)
	hi := math.Min(grid.Max, best+step)
	fineStep := (hi - lo) / float64(grid.Steps-1)
	if fineStep > 0 {
		pin = c.PinLevels(pin, points, lo, lo+float64(grid.Steps-1)*fineStep)
		for i := 0; i < grid.Steps; i++ {
			a := lo + float64(i)*fineStep
			if e := c.QuantizeErrorSumBelow(points, pin, a, bestErr); e < bestErr {
				best, bestErr = a, e
			}
		}
	}
	return best, bestErr, nil
}
