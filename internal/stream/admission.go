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
// below the lower tier's limits for recoveryHold, and steps down one
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

// Admission limits. A shard's queue limits derive from the engine's
// QueueDepth (limitsFor) and a degrade-tier session's in-flight budget
// from its MaxPending (newSession); the rest are fixed operating points.
const (
	degradeScanP95NS = 5e6  // rolling scan p95 (ns) that selects TierDegrade
	shedScanP95NS    = 20e6 // rolling scan p95 (ns) that selects TierShed
	// degradedSyncScale multiplies the receiver's preamble sync threshold
	// for degrade-tier sessions (clamped so the threshold never exceeds 1).
	degradedSyncScale = 1.5
	// recoveryFrac is the hysteresis margin: to step a tier down, every
	// load signal must sit below recoveryFrac × the lower transition's
	// limits, and hold there for recoveryHold.
	recoveryFrac = 0.8
	recoveryHold = 5 * time.Second
)

// admissionLimits are the load levels that select a tier: a shard moves
// to TierDegrade (TierShed) when either signal reaches its degrade
// (shed) limit.
type admissionLimits struct {
	degradeQueue, shedQueue   int     // shared frame queue depth
	degradeScanNS, shedScanNS float64 // rolling ~60 s p95 per-frame scan latency (ns)
}

// limitsFor derives a shard's limits from its queue bound: degrade at
// half the queue, shed when it is full.
func limitsFor(queueDepth int) admissionLimits {
	return admissionLimits{
		degradeQueue: (queueDepth + 1) / 2, shedQueue: queueDepth,
		degradeScanNS: degradeScanP95NS, shedScanNS: shedScanP95NS,
	}
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
	admissionLimits

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
// limit scaled by frac (frac == 1 for escalation; frac == recoveryFrac
// when probing whether the shard has cooled enough to step down).
func (a *admission) loadTier(s admissionSample, frac float64) Tier {
	t := TierAccept
	if float64(s.queueDepth) >= frac*float64(a.degradeQueue) || s.scanP95NS >= frac*a.degradeScanNS {
		t = TierDegrade
	}
	if float64(s.queueDepth) >= frac*float64(a.shedQueue) || s.scanP95NS >= frac*a.shedScanNS {
		t = TierShed
	}
	return t
}

// Decide folds one load sample into the state machine and returns the
// tier to admit under. Escalation applies on the spot; stepping down
// requires the load to hold below recoveryFrac × the lower transition's
// limits for recoveryHold, and moves one tier per hold period.
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
	if a.loadTier(s, recoveryFrac) >= a.tier {
		a.calm = time.Time{} // still hot: restart the hold clock
		return a.tier
	}
	if a.calm.IsZero() {
		a.calm = now
	} else if now.Sub(a.calm) >= recoveryHold {
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
