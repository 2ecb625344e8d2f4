package stream

import (
	"errors"
	"testing"
	"time"
)

func admissionForTest(t *testing.T, cfg AdmissionConfig) *admission {
	t.Helper()
	base := testConfig(t)
	if err := base.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	cfg.Enabled = true
	if err := cfg.applyDefaults(&base); err != nil {
		t.Fatal(err)
	}
	return &admission{cfg: cfg}
}

// TestAdmissionEscalatesImmediately: one overloaded sample is enough to
// raise the tier, including jumping straight from accept to shed.
func TestAdmissionEscalatesImmediately(t *testing.T) {
	a := admissionForTest(t, AdmissionConfig{
		DegradeQueueDepth: 10, ShedQueueDepth: 20,
		DegradeScanP95NS: 1e6, ShedScanP95NS: 4e6,
	})
	now := time.Unix(1000, 0)
	if got := a.Decide(now, admissionSample{queueDepth: 5, scanP95NS: 5e5}); got != TierAccept {
		t.Fatalf("calm sample: tier %v, want accept", got)
	}
	if got := a.Decide(now, admissionSample{queueDepth: 10}); got != TierDegrade {
		t.Fatalf("queue at degrade threshold: tier %v, want degrade", got)
	}
	// Latency alone can escalate too, straight past degrade.
	a2 := admissionForTest(t, AdmissionConfig{
		DegradeQueueDepth: 10, ShedQueueDepth: 20,
		DegradeScanP95NS: 1e6, ShedScanP95NS: 4e6,
	})
	if got := a2.Decide(now, admissionSample{scanP95NS: 4e6}); got != TierShed {
		t.Fatalf("p95 at shed threshold: tier %v, want shed", got)
	}
}

// TestAdmissionRecoveryHysteresis: stepping down needs the load to hold
// below RecoveryFrac × the thresholds for RecoveryHold, one tier per
// hold period; a hot sample mid-hold restarts the clock.
func TestAdmissionRecoveryHysteresis(t *testing.T) {
	a := admissionForTest(t, AdmissionConfig{
		DegradeQueueDepth: 10, ShedQueueDepth: 20,
		DegradeScanP95NS: 1e6, ShedScanP95NS: 4e6,
		RecoveryFrac: 0.8, RecoveryHold: 5 * time.Second,
	})
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

// TestAdmissionConfigDefaultsAndValidation pins the derived defaults and
// the rejection of inconsistent thresholds.
func TestAdmissionConfigDefaultsAndValidation(t *testing.T) {
	base := testConfig(t)
	if err := base.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	a := AdmissionConfig{Enabled: true}
	if err := a.applyDefaults(&base); err != nil {
		t.Fatal(err)
	}
	if a.DegradeQueueDepth != (base.QueueDepth+1)/2 || a.ShedQueueDepth != base.QueueDepth {
		t.Errorf("queue thresholds %d/%d, want %d/%d", a.DegradeQueueDepth, a.ShedQueueDepth, (base.QueueDepth+1)/2, base.QueueDepth)
	}
	if a.DegradedMaxPending != base.MaxPending/4 {
		t.Errorf("degraded max pending %d, want %d", a.DegradedMaxPending, base.MaxPending/4)
	}
	if a.SyncScale != 1.5 || a.RecoveryFrac != 0.8 || a.RecoveryHold != 5*time.Second {
		t.Errorf("defaults %g/%g/%v, want 1.5/0.8/5s", a.SyncScale, a.RecoveryFrac, a.RecoveryHold)
	}
	bad := []AdmissionConfig{
		{Enabled: true, DegradeQueueDepth: 20, ShedQueueDepth: 10},
		{Enabled: true, DegradeScanP95NS: 4e6, ShedScanP95NS: 1e6},
		{Enabled: true, SyncScale: 0.5},
		{Enabled: true, DegradedMaxPending: -1},
		{Enabled: true, RecoveryFrac: 1.5},
	}
	for i, cfg := range bad {
		c := cfg
		if err := c.applyDefaults(&base); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
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
