package stream

import (
	"errors"
	"testing"
	"time"
)

// testLimits are explicit admission limits for the tier-machine tests.
var testLimits = admissionLimits{degradeQueue: 10, shedQueue: 20, degradeScanNS: 1e6, shedScanNS: 4e6}

// TestAdmissionEscalatesImmediately: one overloaded sample is enough to
// raise the tier, including jumping straight from accept to shed.
func TestAdmissionEscalatesImmediately(t *testing.T) {
	a := &admission{admissionLimits: testLimits}
	now := time.Unix(1000, 0)
	if got := a.Decide(now, admissionSample{queueDepth: 5, scanP95NS: 5e5}); got != TierAccept {
		t.Fatalf("calm sample: tier %v, want accept", got)
	}
	if got := a.Decide(now, admissionSample{queueDepth: 10}); got != TierDegrade {
		t.Fatalf("queue at degrade threshold: tier %v, want degrade", got)
	}
	// Latency alone can escalate too, straight past degrade.
	a2 := &admission{admissionLimits: testLimits}
	if got := a2.Decide(now, admissionSample{scanP95NS: 4e6}); got != TierShed {
		t.Fatalf("p95 at shed threshold: tier %v, want shed", got)
	}
}

// TestAdmissionRecoveryHysteresis: stepping down needs the load to hold
// below recoveryFrac (0.8) × the limits for recoveryHold (5 s), one tier
// per hold period; a hot sample mid-hold restarts the clock.
func TestAdmissionRecoveryHysteresis(t *testing.T) {
	a := &admission{admissionLimits: testLimits}
	now := time.Unix(2000, 0)
	if got := a.Decide(now, admissionSample{queueDepth: 25}); got != TierShed {
		t.Fatalf("overload: tier %v, want shed", got)
	}
	// Queue 17 is below the shed threshold (20) but NOT below the recovery
	// margin 0.8×20=16: the shard is not considered cool, hold never starts.
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		if got := a.Decide(now, admissionSample{queueDepth: 17}); got != TierShed {
			t.Fatalf("sample %d just under threshold: tier %v, want shed (hysteresis)", i, got)
		}
	}
	// Cool sample starts the hold clock; the tier stays until the hold
	// elapses, then steps down exactly one tier.
	cool := admissionSample{queueDepth: 2, scanP95NS: 1e5}
	now = now.Add(time.Second)
	if got := a.Decide(now, cool); got != TierShed {
		t.Fatalf("hold not elapsed: tier %v, want shed", got)
	}
	now = now.Add(3 * time.Second)
	if got := a.Decide(now, cool); got != TierShed {
		t.Fatalf("hold at 3s of 5s: tier %v, want shed", got)
	}
	// A hot sample restarts the clock.
	now = now.Add(time.Second)
	if got := a.Decide(now, admissionSample{queueDepth: 30}); got != TierShed {
		t.Fatalf("hot mid-hold: tier %v, want shed", got)
	}
	now = now.Add(4 * time.Second)
	if got := a.Decide(now, cool); got != TierShed {
		t.Fatalf("hold restarted, 4s of 5s: tier %v, want shed", got)
	}
	now = now.Add(5 * time.Second)
	if got := a.Decide(now, cool); got != TierDegrade {
		t.Fatalf("hold elapsed: tier %v, want degrade (one step)", got)
	}
	// Second hold period steps down to accept.
	now = now.Add(time.Second)
	if got := a.Decide(now, cool); got != TierDegrade {
		t.Fatalf("second hold starting: tier %v, want degrade", got)
	}
	now = now.Add(5 * time.Second)
	if got := a.Decide(now, cool); got != TierAccept {
		t.Fatalf("second hold elapsed: tier %v, want accept", got)
	}
}

// TestAdmissionDerivedLimits pins the limits derived from the engine
// config: a shard degrades at half its queue and sheds when it is full,
// and a degrade-tier session syncs at 1.5× the threshold (at most 1) with
// a quarter of MaxPending (at least 1) in flight.
func TestAdmissionDerivedLimits(t *testing.T) {
	for _, q := range []int{1, 2, 7, 64} {
		want := admissionLimits{degradeQueue: (q + 1) / 2, shedQueue: q, degradeScanNS: 5e6, shedScanNS: 20e6}
		if got := limitsFor(q); got != want {
			t.Errorf("limitsFor(%d) = %+v, want %+v", q, got, want)
		}
	}
	for _, pending := range []int{1, 3, 32} {
		cfg := testConfig(t)
		cfg.MaxPending = pending
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pipe := e.pipes[0]
		full := newSession(e, e.shards[0], pipe, nil, sessionOpts{}, nil)
		deg := newSession(e, e.shards[0], pipe, nil, sessionOpts{degraded: true}, nil)
		if full.maxPending != pending || deg.maxPending != max(1, pending/4) {
			t.Errorf("MaxPending %d: sessions keep %d / %d in flight, want %d / %d",
				pending, full.maxPending, deg.maxPending, pending, max(1, pending/4))
		}
		if got, want := deg.rx.SyncThreshold(), min(pipe.rx.SyncThreshold()*1.5, 1); got != want {
			t.Errorf("degraded sync threshold %v, want %v", got, want)
		}
		full.drain()
		deg.drain()
		e.Close()
	}
}

// TestShedErrorMatchesSentinel: the typed rejection matches ErrShed via
// errors.Is and carries the load sample.
func TestShedErrorMatchesSentinel(t *testing.T) {
	err := error(&ShedError{Shard: 3, QueueDepth: 64, ScanP95NS: 2.5e7})
	if !errors.Is(err, ErrShed) {
		t.Fatal("errors.Is(ShedError, ErrShed) = false")
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Shard != 3 || shed.QueueDepth != 64 {
		t.Fatalf("errors.As lost the payload: %+v", shed)
	}
	if errors.Is(errors.New("other"), ErrShed) {
		t.Fatal("unrelated error matches ErrShed")
	}
}
