package calib

import (
	"fmt"
	"sync"
	"time"

	"hideseek/internal/obs"
)

// DriftEvent is the typed drift alarm: a windowed authentic quantile has
// shifted past driftFrac of its fitted baseline. It implements
// error so the stream pipeline can record it on the frame trace's calib
// span.
type DriftEvent struct {
	// Class is the drifted session class.
	Class string `json:"class"`
	// Metric names the shifted quantile ("p50" or "p95").
	Metric string `json:"metric"`
	// Baseline and Observed are the fitted-baseline and last-60 s values.
	Baseline float64 `json:"baseline"`
	Observed float64 `json:"observed"`
	// Shift is the relative shift |Observed−Baseline|/Baseline.
	Shift float64 `json:"shift"`
	// At is when the monitor flagged the shift.
	At time.Time `json:"at"`
}

// Error implements error.
func (e *DriftEvent) Error() string {
	return fmt.Sprintf("calib: %s drift on %q: windowed %s %.4f vs baseline %.4f (%.0f%% shift)",
		e.Metric, e.Class, e.Metric, e.Observed, e.Baseline, e.Shift*100)
}

// Fit records one fitted boundary and the baseline the drift monitor
// compares against.
type Fit struct {
	// Threshold is the minimum-overlap cut.
	Threshold float64 `json:"threshold"`
	// OverlapCost is the empirical error mass at the cut (0 = separated).
	OverlapCost float64 `json:"overlap_cost"`
	// AuthP50/AuthP95/EmulP50 are the class quantiles at fit time; the
	// authentic pair is the drift monitor's baseline.
	AuthP50 float64 `json:"auth_p50"`
	AuthP95 float64 `json:"auth_p95"`
	EmulP50 float64 `json:"emul_p50"`
	// AuthN/EmulN are the windowed sample counts the fit consumed.
	AuthN uint64 `json:"auth_n"`
	EmulN uint64 `json:"emul_n"`
	// At is the fit time.
	At time.Time `json:"at"`
}

// Status is one class's row in the admin/health surfaces.
type Status struct {
	Class     string  `json:"class"`
	State     string  `json:"state"` // "warmup" or "calibrated"
	Source    string  `json:"source"`
	Threshold float64 `json:"threshold"`
	Fallback  float64 `json:"fallback"`
	// Override is the operator threshold when set.
	Override *float64 `json:"override,omitempty"`
	// Fit is the fitted boundary once warmup completes.
	Fit *Fit `json:"fit,omitempty"`
	// AuthWindow/EmulWindow count the labeled samples inside the rolling
	// fit window right now.
	AuthWindow uint64 `json:"auth_window"`
	EmulWindow uint64 `json:"emul_window"`
	// DriftTotal counts raised drift events since the class appeared;
	// LastDrift is the most recent one.
	DriftTotal uint64      `json:"drift_total"`
	LastDrift  *DriftEvent `json:"last_drift,omitempty"`
}

// Calibrator is one session class's calibration state machine: warmup →
// fitted boundary → drift monitoring, with an operator override that
// outranks both. Calibrators are safe for concurrent use; every session
// of the class shares one.
type Calibrator struct {
	mu       sync.Mutex
	cfg      Config
	class    string
	fallback float64
	gauge    *obs.Gauge

	auth, emul *windowDist
	fit        *Fit
	override   *float64

	lastCheck  time.Time
	driftTotal uint64
	lastDrift  *DriftEvent

	// scratch merge buffers, reused under mu so the per-frame path does
	// not allocate.
	scratchA, scratchE []uint64
}

func newCalibrator(cfg Config, class string, fallback float64) *Calibrator {
	c := &Calibrator{
		cfg:      cfg,
		class:    class,
		fallback: fallback,
		gauge:    obs.G("calib_threshold." + class),
		auth:     newWindowDist(bins, maxValue),
		emul:     newWindowDist(bins, maxValue),
		scratchA: make([]uint64, bins),
		scratchE: make([]uint64, bins),
	}
	c.gauge.Set(fallback)
	return c
}

// Class returns the class name.
func (c *Calibrator) Class() string { return c.class }

// Threshold resolves the class's effective detection threshold:
// operator override > fitted boundary > protocol default.
func (c *Calibrator) Threshold() (float64, Source) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.thresholdLocked()
}

func (c *Calibrator) thresholdLocked() (float64, Source) {
	switch {
	case c.override != nil:
		return *c.override, SourceOperator
	case c.fit != nil:
		return c.fit.Threshold, SourceFitted
	default:
		return c.fallback, SourceDefault
	}
}

// Calibrated reports whether the class has completed warmup (a fitted
// boundary exists). Unlabeled pipeline traffic is only self-labeled into
// the drift monitor once this is true.
func (c *Calibrator) Calibrated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fit != nil
}

// Observe records one labeled D² sample. During warmup it counts toward
// the boundary fit (completing it once both classes reach
// WarmupPerClass inside the rolling window); after the fit it feeds the
// drift monitor, which returns a non-nil DriftEvent when the windowed
// authentic quantiles have shifted past driftFrac of the fitted
// baseline (throttled to one evaluation per DriftCheckEvery).
// LabelNone samples are discarded.
func (c *Calibrator) Observe(d2 float64, label Label) *DriftEvent {
	if label != LabelAuthentic && label != LabelEmulated {
		return nil
	}
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if label == LabelAuthentic {
		c.auth.observe(d2, now)
	} else {
		c.emul.observe(d2, now)
	}
	if c.fit == nil {
		c.maybeFitLocked(now)
		return nil
	}
	return c.checkDriftLocked(now)
}

// maybeFitLocked completes warmup when both classes have enough windowed
// samples: the boundary becomes the minimum-overlap cut between the two
// rolling distributions and the authentic quantiles become the drift
// baseline.
func (c *Calibrator) maybeFitLocked(now time.Time) {
	an := c.auth.merged(c.scratchA, now, obs.WindowLong)
	en := c.emul.merged(c.scratchE, now, obs.WindowLong)
	if an < uint64(c.cfg.WarmupPerClass) || en < uint64(c.cfg.WarmupPerClass) {
		return
	}
	cut, cost := fitBinned(c.scratchA, c.scratchE, an, en, maxValue)
	c.fit = &Fit{
		Threshold:   cut,
		OverlapCost: cost,
		AuthP50:     quantileOf(c.scratchA, an, 0.50, maxValue),
		AuthP95:     quantileOf(c.scratchA, an, 0.95, maxValue),
		EmulP50:     quantileOf(c.scratchE, en, 0.50, maxValue),
		AuthN:       an,
		EmulN:       en,
		At:          now,
	}
	c.lastCheck = now
	thr, _ := c.thresholdLocked()
	c.gauge.Set(thr)
}

// checkDriftLocked compares the last-60 s authentic quantiles against
// the fit baseline, at most once per DriftCheckEvery. A check that finds
// fewer than minWindowCount samples evaluates nothing, so it does not
// start a new throttle period: the sample that fills the window is
// checked at once.
func (c *Calibrator) checkDriftLocked(now time.Time) *DriftEvent {
	if now.Sub(c.lastCheck) < c.cfg.DriftCheckEvery {
		return nil
	}
	n := c.auth.merged(c.scratchA, now, obs.WindowShort)
	if n < minWindowCount {
		return nil
	}
	c.lastCheck = now
	p50 := quantileOf(c.scratchA, n, 0.50, maxValue)
	p95 := quantileOf(c.scratchA, n, 0.95, maxValue)
	ev := driftOf(c.class, "p50", c.fit.AuthP50, p50, driftFrac, now)
	if ev95 := driftOf(c.class, "p95", c.fit.AuthP95, p95, driftFrac, now); ev95 != nil && (ev == nil || ev95.Shift > ev.Shift) {
		ev = ev95
	}
	if ev != nil {
		c.driftTotal++
		c.lastDrift = ev
	}
	return ev
}

// driftOf builds the event for one quantile when its relative shift
// exceeds frac; baselines at (or below) zero cannot normalize a shift
// and never flag.
func driftOf(class, metric string, baseline, observed, frac float64, now time.Time) *DriftEvent {
	if baseline <= 0 {
		return nil
	}
	shift := observed - baseline
	if shift < 0 {
		shift = -shift
	}
	shift /= baseline
	if shift <= frac {
		return nil
	}
	return &DriftEvent{Class: class, Metric: metric, Baseline: baseline, Observed: observed, Shift: shift, At: now}
}

// SetOverride pins the class's threshold to t (operator precedence)
// until ClearOverride.
func (c *Calibrator) SetOverride(t float64) error {
	if t <= 0 {
		return fmt.Errorf("calib: override threshold %v must be > 0", t)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.override = &t
	c.gauge.Set(t)
	return nil
}

// ClearOverride drops the operator override; the fitted boundary (or
// the protocol default) applies again.
func (c *Calibrator) ClearOverride() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.override = nil
	thr, _ := c.thresholdLocked()
	c.gauge.Set(thr)
}

// Rearm drops the fitted boundary and both rolling distributions,
// returning the class to warmup (the drift tally survives — it counts
// lifetime events). An operator override, when set, keeps precedence
// through the new warmup.
func (c *Calibrator) Rearm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fit = nil
	c.lastDrift = nil
	c.auth.reset()
	c.emul.reset()
	thr, _ := c.thresholdLocked()
	c.gauge.Set(thr)
}

// DriftTotal returns the lifetime drift-event count.
func (c *Calibrator) DriftTotal() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.driftTotal
}

// Status snapshots the calibrator.
func (c *Calibrator) Status() Status {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	thr, src := c.thresholdLocked()
	st := Status{
		Class:      c.class,
		State:      "warmup",
		Source:     src.String(),
		Threshold:  thr,
		Fallback:   c.fallback,
		AuthWindow: c.auth.total(now, obs.WindowLong),
		EmulWindow: c.emul.total(now, obs.WindowLong),
		DriftTotal: c.driftTotal,
	}
	if c.override != nil {
		v := *c.override
		st.Override = &v
	}
	if c.fit != nil {
		st.State = "calibrated"
		f := *c.fit
		st.Fit = &f
	}
	if c.lastDrift != nil {
		ev := *c.lastDrift
		st.LastDrift = &ev
	}
	return st
}
