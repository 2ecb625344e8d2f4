package zigbee

import (
	"math/rand"
	"testing"
)

func TestCSMAConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := PerformCSMA(CSMAConfig{MinBE: 5, MaxBE: 3}, IdleMedium{}, 0, rng); err == nil {
		t.Error("accepted MaxBE < MinBE")
	}
	if _, err := PerformCSMA(CSMAConfig{MaxBE: 20}, IdleMedium{}, 0, rng); err == nil {
		t.Error("accepted huge MaxBE")
	}
	if _, err := PerformCSMA(CSMAConfig{MaxBackoffs: 99}, IdleMedium{}, 0, rng); err == nil {
		t.Error("accepted huge MaxBackoffs")
	}
	if _, err := PerformCSMA(CSMAConfig{}, nil, 0, rng); err == nil {
		t.Error("accepted nil medium")
	}
	if _, err := PerformCSMA(CSMAConfig{}, IdleMedium{}, 0, nil); err == nil {
		t.Error("accepted nil rng")
	}
}

func TestCSMAIdleMediumSucceedsImmediately(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		res, err := PerformCSMA(CSMAConfig{}, IdleMedium{}, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success || res.Backoffs != 0 {
			t.Fatalf("idle medium: %+v", res)
		}
		// Delay = initial backoff (0..7 periods) + one CCA.
		maxDelay := 7*UnitBackoffPeriodUs + CCADurationUs
		if res.DelayUs < CCADurationUs || res.DelayUs > maxDelay {
			t.Fatalf("delay %g outside [%g, %g]", res.DelayUs, CCADurationUs, maxDelay)
		}
	}
}

func TestCSMAAlwaysBusyFails(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	busy := PeriodicTraffic{PeriodUs: 100, BusyUs: 100}
	res, err := PerformCSMA(CSMAConfig{}, busy, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Error("succeeded on an always-busy medium")
	}
	if res.Backoffs != 5 { // macMaxCSMABackoffs(4) + 1 attempts
		t.Errorf("backoffs = %d, want 5", res.Backoffs)
	}
}

func TestCSMAEventuallyWinsOnLightTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// 10% duty cycle: some CCAs hit the busy window, but most attempts
	// should succeed.
	light := PeriodicTraffic{PeriodUs: 5000, BusyUs: 500}
	wins := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		res, err := PerformCSMA(CSMAConfig{}, light, float64(i)*937, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Success {
			wins++
		}
	}
	if wins < trials*85/100 {
		t.Errorf("only %d/%d attempts succeeded under 10%% duty cycle", wins, trials)
	}
}

func TestCSMABackoffGrowsUnderContention(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// 60% duty cycle, short period: failures and retries are common; the
	// mean delay must exceed the idle-medium mean (≈ 3.5 backoff periods).
	heavy := PeriodicTraffic{PeriodUs: 1000, BusyUs: 600}
	var totalDelay float64
	var backoffs int
	const trials = 300
	for i := 0; i < trials; i++ {
		res, err := PerformCSMA(CSMAConfig{}, heavy, float64(i)*1313, rng)
		if err != nil {
			t.Fatal(err)
		}
		totalDelay += res.DelayUs
		backoffs += res.Backoffs
	}
	if backoffs == 0 {
		t.Error("no busy CCAs at 60% duty cycle")
	}
	idleMean := 3.5*UnitBackoffPeriodUs + CCADurationUs
	if totalDelay/trials <= idleMean {
		t.Errorf("mean delay %g not above idle mean %g", totalDelay/trials, idleMean)
	}
}

func TestPeriodicTrafficWindows(t *testing.T) {
	p := PeriodicTraffic{PeriodUs: 1000, BusyUs: 200}
	if !p.BusyAt(100) {
		t.Error("window inside busy interval not detected")
	}
	if p.BusyAt(500) {
		t.Error("idle window misreported")
	}
	// CCA window straddling the next busy start must report busy.
	if !p.BusyAt(999.0 - CCADurationUs/2) {
		t.Error("straddling window not detected")
	}
	// Degenerate configs are never busy.
	if (PeriodicTraffic{}).BusyAt(0) {
		t.Error("zero-period traffic reported busy")
	}
}
