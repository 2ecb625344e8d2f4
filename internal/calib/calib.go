// Package calib is the online-calibration subsystem of the streaming
// defense: per-session-class rolling D² distributions, an auto-fitted
// authentic/emulated decision boundary, and a drift monitor that flags
// when the live channel has walked away from the boundary's fit.
//
// The paper calibrates the detection threshold Q once, offline, from
// labeled training waveforms (Sec. VII-B). A long-lived deployment cannot:
// slow fading, oscillator drift, and interference shift both the authentic
// and the emulated D² distributions over minutes. This package keeps the
// calibration alive:
//
//   - Every session class (by default one per protocol) tracks the D² of
//     its frames in two rolling distributions — one per verdict label —
//     on obs.EpochRing, the 12 × 10 s epoch-stamped ring behind the obs
//     package's windowed histograms (fixed memory, stale slots reset in
//     place), but with linear bins over the defense statistic's actual
//     range: D² lives in [0, ~2.5], entirely below the resolution floor
//     of obs.Histogram's log2 buckets.
//   - During warmup the labels come from the operator (labeled warmup
//     traffic or admin-marked samples); once both classes have enough
//     samples the boundary is fitted as the minimum-overlap cut between
//     the two empirical distributions (FitBoundary). Until then the
//     protocol's configured default threshold applies.
//   - After the fit, a drift monitor compares the last 60 s of authentic
//     quantiles (p50/p95) against the fitted baseline and raises a typed
//     DriftEvent when the relative shift exceeds 50%.
//
// Threshold precedence is operator override > fitted boundary > protocol
// default; Calibrator.Threshold reports both the value and its source.
// The stream package threads calibrated thresholds into detectors through
// the phy.DetectTuner capability without touching shared pipeline state.
package calib

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Label marks which class a D² observation belongs to.
type Label int

// Observation labels. LabelNone observations are discarded: the fit and
// the drift monitor only trust labeled samples.
const (
	LabelNone Label = iota
	LabelAuthentic
	LabelEmulated
)

// ParseLabel resolves the admin-surface spelling of a label.
func ParseLabel(s string) (Label, error) {
	switch s {
	case "authentic":
		return LabelAuthentic, nil
	case "emulated":
		return LabelEmulated, nil
	case "":
		return LabelNone, nil
	default:
		return LabelNone, fmt.Errorf("calib: unknown label %q (want authentic or emulated)", s)
	}
}

// Source identifies where a class's effective threshold comes from, in
// increasing precedence order.
type Source int

// Threshold sources.
const (
	SourceDefault  Source = iota // protocol default (warmup not complete)
	SourceFitted                 // minimum-overlap cut from warmup samples
	SourceOperator               // admin override
)

// String returns the admin-surface spelling.
func (s Source) String() string {
	switch s {
	case SourceFitted:
		return "fitted"
	case SourceOperator:
		return "operator"
	default:
		return "default"
	}
}

// Config parameterizes a Manager. The zero value of every field selects a
// sensible default.
type Config struct {
	// WarmupPerClass is how many labeled samples each class needs inside
	// the rolling window before the boundary is fitted (default 32).
	WarmupPerClass int
	// DriftCheckEvery throttles drift evaluation (default 1 s): the
	// monitor runs per frame but re-derives quantiles at most this often.
	DriftCheckEvery time.Duration
	// Now is the clock (default time.Now; tests inject a fake).
	Now func() time.Time
}

// Fixed calibration parameters.
const (
	// driftFrac is the relative shift of a windowed authentic quantile
	// (p50 or p95 of the last 60 s) against the fitted baseline that
	// raises a DriftEvent (50%).
	driftFrac = 0.5
	// minWindowCount is the minimum authentic sample count inside the
	// drift window before a drift verdict is trusted. A fully-stale ring
	// reports zero samples and never flags drift.
	minWindowCount = 16
	// bins linear bins over [0, maxValue) are the distribution geometry,
	// sized for both defense statistics: zigbee D²E and the lora
	// off-peak ratio.
	bins     = 256
	maxValue = 2.5
)

// Class bounds. Class names arrive from clients (hideseekd's
// ?calib_class=) and every class keeps a Calibrator and a process-wide
// calib_threshold.<class> gauge for the life of the process, so a
// Manager creates classes only for names of 1 to MaxClassName bytes
// from [A-Za-z0-9_] (which keeps gauge names distinct once exported) and
// at most MaxClasses of them besides its reserved classes.
const (
	MaxClassName = 64
	MaxClasses   = 64
)

// ErrClassRefused is why Class returns nil: the name breaks the class
// bounds.
var ErrClassRefused = fmt.Errorf("calib: class refused (want 1-%d bytes of [A-Za-z0-9_], at most %d classes besides the protocol defaults)",
	MaxClassName, MaxClasses)

func (c Config) withDefaults() Config {
	if c.WarmupPerClass == 0 {
		c.WarmupPerClass = 32
	}
	if c.DriftCheckEvery == 0 {
		c.DriftCheckEvery = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Validate rejects configurations the defaults cannot repair.
func (c Config) Validate() error {
	if c.WarmupPerClass < 0 {
		return fmt.Errorf("calib: WarmupPerClass %d < 0", c.WarmupPerClass)
	}
	return nil
}

// Manager owns the calibrators of every session class. One Manager is
// shared by every shard of an engine, so a session keeps its class's
// calibrated threshold wherever admission lands it (including the
// degraded tier). Managers are safe for concurrent use.
type Manager struct {
	cfg      Config
	reserved map[string]bool
	mu       sync.Mutex
	classes  map[string]*Calibrator
	named    int // classes outside reserved, at most MaxClasses
}

// NewManager validates cfg and returns an empty manager. The reserved
// classes (an engine passes its protocol names, the classes of sessions
// that name none) are created on first use like any other but never
// count toward MaxClasses, so client-named classes cannot lock a
// protocol's default class out.
func NewManager(cfg Config, reserved ...string) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{cfg: cfg.withDefaults(), reserved: make(map[string]bool, len(reserved)), classes: make(map[string]*Calibrator)}
	for _, class := range reserved {
		if !validClass(class) {
			return nil, fmt.Errorf("reserved class %q: %w", class, ErrClassRefused)
		}
		m.reserved[class] = true
	}
	return m, nil
}

// Class returns the named class's calibrator, creating it (warmup state,
// the given fallback threshold) on first use. Later calls ignore
// fallback: the first session of a class pins its protocol default.
// Class returns nil, creating nothing, for a class ErrClassRefused
// describes.
func (m *Manager) Class(class string, fallback float64) *Calibrator {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.classes[class]
	if !ok {
		reserved := m.reserved[class]
		if !reserved && (m.named >= MaxClasses || !validClass(class)) {
			return nil
		}
		if !reserved {
			m.named++
		}
		c = newCalibrator(m.cfg, class, fallback)
		m.classes[class] = c
	}
	return c
}

// validClass reports whether name is 1 to MaxClassName bytes of
// [A-Za-z0-9_].
func validClass(name string) bool {
	if len(name) == 0 || len(name) > MaxClassName {
		return false
	}
	for i := 0; i < len(name); i++ {
		switch b := name[i]; {
		case b == '_', '0' <= b && b <= '9', 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z':
		default:
			return false
		}
	}
	return true
}

// Lookup returns the named class's calibrator without creating it.
func (m *Manager) Lookup(class string) (*Calibrator, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.classes[class]
	return c, ok
}

// Status snapshots every class, sorted by class name (the /healthz
// calibration table and GET /v1/calib body).
func (m *Manager) Status() []Status {
	m.mu.Lock()
	cals := make([]*Calibrator, 0, len(m.classes))
	for _, c := range m.classes {
		cals = append(cals, c)
	}
	m.mu.Unlock()
	out := make([]Status, len(cals))
	for i, c := range cals {
		out[i] = c.Status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
