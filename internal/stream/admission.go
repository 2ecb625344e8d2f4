package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Tier is an engine shard's admission tier. Tiers order by load: every
// session is admitted at full fidelity under TierAccept, admitted at a
// reduced operating point under TierDegrade, and rejected outright under
// TierShed. Escalation is immediate (one overloaded sample moves the
// tier up); recovery is hysteretic (the shard must hold comfortably
// below the lower tier's thresholds for RecoveryHold, and steps down one
// tier at a time) so the tier does not flap at a threshold boundary.
type Tier int

const (
	TierAccept Tier = iota
	TierDegrade
	TierShed
)

func (t Tier) String() string {
	switch t {
	case TierAccept:
		return "accept"
	case TierDegrade:
		return "degrade"
	case TierShed:
		return "shed"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// AdmissionConfig parameterizes an Engine's per-shard admission control.
// The zero value disables admission entirely (every session is accepted
// at full fidelity); set Enabled to turn it on with the documented
// defaults. Load is judged from two signals per shard: the instantaneous
// shared-queue depth and the rolling ~60 s p95 of per-frame scan latency
// (the same windowed histogram /metrics exports as
// stream.shard<i>.scan_ns).
type AdmissionConfig struct {
	// Enabled turns admission control on. When false every other field is
	// ignored and Engine.Process admits unconditionally.
	Enabled bool
	// DegradeQueueDepth / DegradeScanP95NS move a shard to TierDegrade
	// when either is reached (defaults: half the engine QueueDepth; 5 ms).
	DegradeQueueDepth int
	DegradeScanP95NS  float64
	// ShedQueueDepth / ShedScanP95NS move a shard to TierShed when either
	// is reached (defaults: the engine QueueDepth; 20 ms).
	ShedQueueDepth int
	ShedScanP95NS  float64
	// SyncScale multiplies the receiver's preamble sync threshold for
	// degrade-tier sessions (default 1.5; clamped so the threshold never
	// exceeds 1).
	SyncScale float64
	// DegradedMaxPending is the in-flight frame bound for degrade-tier
	// sessions (default: a quarter of the engine MaxPending, minimum 1).
	DegradedMaxPending int
	// RecoveryFrac is the hysteresis margin: to step a tier down, every
	// load signal must sit below RecoveryFrac × the lower transition's
	// thresholds (default 0.8; must be in (0, 1]).
	RecoveryFrac float64
	// RecoveryHold is how long a shard must hold below the recovery
	// margin before the tier steps down one level (default 5 s).
	RecoveryHold time.Duration
}

// applyDefaults resolves zero fields against the engine config
// (whose own defaults have already been applied).
func (a *AdmissionConfig) applyDefaults(base *Config) error {
	if a.DegradeQueueDepth == 0 {
		a.DegradeQueueDepth = (base.QueueDepth + 1) / 2
	}
	if a.ShedQueueDepth == 0 {
		a.ShedQueueDepth = base.QueueDepth
	}
	if a.DegradeScanP95NS == 0 {
		a.DegradeScanP95NS = 5e6
	}
	if a.ShedScanP95NS == 0 {
		a.ShedScanP95NS = 20e6
	}
	if a.SyncScale == 0 {
		a.SyncScale = 1.5
	}
	if a.DegradedMaxPending == 0 {
		a.DegradedMaxPending = base.MaxPending / 4
		if a.DegradedMaxPending < 1 {
			a.DegradedMaxPending = 1
		}
	}
	if a.RecoveryFrac == 0 {
		a.RecoveryFrac = 0.8
	}
	if a.RecoveryHold == 0 {
		a.RecoveryHold = 5 * time.Second
	}
	switch {
	case a.DegradeQueueDepth < 1 || a.ShedQueueDepth < a.DegradeQueueDepth:
		return fmt.Errorf("stream: admission queue thresholds %d/%d invalid (need 1 <= degrade <= shed)",
			a.DegradeQueueDepth, a.ShedQueueDepth)
	case a.DegradeScanP95NS <= 0 || a.ShedScanP95NS < a.DegradeScanP95NS:
		return fmt.Errorf("stream: admission scan-p95 thresholds %g/%g invalid (need 0 < degrade <= shed)",
			a.DegradeScanP95NS, a.ShedScanP95NS)
	case a.SyncScale < 1:
		return fmt.Errorf("stream: admission sync scale %g < 1", a.SyncScale)
	case a.DegradedMaxPending < 1:
		return fmt.Errorf("stream: admission degraded max pending %d < 1", a.DegradedMaxPending)
	case a.RecoveryFrac <= 0 || a.RecoveryFrac > 1:
		return fmt.Errorf("stream: admission recovery fraction %g outside (0, 1]", a.RecoveryFrac)
	case a.RecoveryHold < 0:
		return fmt.Errorf("stream: admission recovery hold %v < 0", a.RecoveryHold)
	}
	return nil
}

// admissionSample is one shard's load reading at a decision instant.
type admissionSample struct {
	queueDepth int     // shared frame queue depth right now
	scanP95NS  float64 // rolling ~60 s p95 per-frame scan latency (ns)
}

// admission is one shard's tier state machine. Decide is called on the
// admission path (per Process call) with a fresh load sample; the
// machine escalates immediately and recovers hysteretically.
type admission struct {
	cfg AdmissionConfig

	mu   sync.Mutex
	tier Tier
	calm time.Time // since when load has held below the recovery margin
}

// current returns the tier without taking a new sample.
func (a *admission) current() Tier {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tier
}

// loadTier maps a sample to the tier its raw load demands, with every
// threshold scaled by frac (frac == 1 for escalation; frac ==
// RecoveryFrac when probing whether the shard has cooled enough to step
// down).
func (a *admission) loadTier(s admissionSample, frac float64) Tier {
	t := TierAccept
	if float64(s.queueDepth) >= frac*float64(a.cfg.DegradeQueueDepth) || s.scanP95NS >= frac*a.cfg.DegradeScanP95NS {
		t = TierDegrade
	}
	if float64(s.queueDepth) >= frac*float64(a.cfg.ShedQueueDepth) || s.scanP95NS >= frac*a.cfg.ShedScanP95NS {
		t = TierShed
	}
	return t
}

// Decide folds one load sample into the state machine and returns the
// tier to admit under. Escalation applies on the spot; stepping down
// requires the load to hold below RecoveryFrac × the lower transition's
// thresholds for RecoveryHold, and moves one tier per hold period.
func (a *admission) Decide(now time.Time, s admissionSample) Tier {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t := a.loadTier(s, 1); t > a.tier {
		a.tier = t
		a.calm = time.Time{}
		return a.tier
	}
	if a.tier == TierAccept {
		a.calm = time.Time{}
		return a.tier
	}
	if a.loadTier(s, a.cfg.RecoveryFrac) >= a.tier {
		a.calm = time.Time{} // still hot: restart the hold clock
		return a.tier
	}
	if a.calm.IsZero() {
		a.calm = now
	} else if now.Sub(a.calm) >= a.cfg.RecoveryHold {
		a.tier--
		a.calm = time.Time{}
	}
	return a.tier
}

// ErrShed is the sentinel a shed-tier rejection matches with errors.Is.
// The concrete error is a *ShedError carrying the shard and the load
// sample that tripped the rejection.
var ErrShed = errors.New("stream: session shed by admission control")

// ShedError reports a session rejected at admission because its target
// shard is in TierShed. Callers should surface it as backpressure
// (cmd/hideseekd maps it to HTTP 503) and retry later or elsewhere.
type ShedError struct {
	Shard      int     // shard the session hashed to
	QueueDepth int     // shard queue depth at the decision
	ScanP95NS  float64 // shard rolling p95 scan latency (ns) at the decision
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("stream: session shed by admission control (shard %d, queue %d, scan p95 %.0f ns)",
		e.Shard, e.QueueDepth, e.ScanP95NS)
}

// Is makes errors.Is(err, ErrShed) match any *ShedError.
func (e *ShedError) Is(target error) bool { return target == ErrShed }
