package runner

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// trialDraws runs a sweep that records each trial's first RNG draws and
// returns the ordered results.
func trialDraws(t *testing.T, workers, n int) []float64 {
	t.Helper()
	out, err := Map(NewPool(workers), Sweep{Seed: 7, Base: 1 << 32}, n, nil,
		func(tr Trial, _ struct{}) (float64, error) {
			return float64(tr.Index) + tr.RNG.Float64(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	ref := trialDraws(t, 1, 257)
	for _, w := range []int{2, 3, 8, 64} {
		if got := trialDraws(t, w, 257); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d results differ from serial", w)
		}
	}
}

func TestMapPerTrialRNGMatchesDerivation(t *testing.T) {
	const seed, base = 42, 9000
	out, err := Map(NewPool(4), Sweep{Seed: seed, Base: base}, 16, nil,
		func(tr Trial, _ struct{}) (float64, error) { return tr.RNG.Float64(), nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range out {
		if want := RNG(seed, base+int64(i)).Float64(); got != want {
			t.Fatalf("trial %d drew %v, want %v", i, got, want)
		}
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	for _, w := range []int{1, 4, 16} {
		_, err := Map(NewPool(w), Sweep{Seed: 1}, 100, nil,
			func(tr Trial, _ struct{}) (int, error) {
				if tr.Index%7 == 3 { // fails at 3, 10, 17, …
					return 0, fmt.Errorf("boom %d", tr.Index)
				}
				return tr.Index, nil
			})
		if err == nil {
			t.Fatalf("workers=%d: expected error", w)
		}
		if want := "runner: trial 3: boom 3"; err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", w, err, want)
		}
	}
}

func TestMapScratchPerWorker(t *testing.T) {
	var built atomic.Int64
	const workers = 4
	out, err := Map(NewPool(workers), Sweep{Seed: 1}, 64,
		func() (*int, error) {
			id := int(built.Add(1))
			return &id, nil
		},
		func(tr Trial, scratch *int) (int, error) {
			if scratch == nil {
				return 0, fmt.Errorf("nil scratch")
			}
			return *scratch, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n > workers {
		t.Fatalf("built %d scratch sets for %d workers", n, workers)
	}
	for i, v := range out {
		if v < 1 || v > workers {
			t.Fatalf("trial %d saw scratch id %d", i, v)
		}
	}
}

func TestMapScratchErrorPropagates(t *testing.T) {
	for _, w := range []int{1, 4} {
		_, err := Map(NewPool(w), Sweep{Seed: 1}, 8,
			func() (struct{}, error) { return struct{}{}, fmt.Errorf("no hardware") },
			func(tr Trial, _ struct{}) (int, error) { return 0, nil })
		if err == nil {
			t.Fatalf("workers=%d: expected scratch error", w)
		}
	}
}

func TestMapEdgeCases(t *testing.T) {
	out, err := Map(NewPool(4), Sweep{}, 0, nil,
		func(tr Trial, _ struct{}) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("n=0: out=%v err=%v", out, err)
	}
	if _, err := Map(NewPool(4), Sweep{}, -1, nil,
		func(tr Trial, _ struct{}) (int, error) { return 0, nil }); err == nil {
		t.Error("accepted negative n")
	}
	if _, err := Map[struct{}, int](NewPool(4), Sweep{}, 4, nil, nil); err == nil {
		t.Error("accepted nil trial function")
	}
}

func TestTrialsExecutedAdvances(t *testing.T) {
	before := TrialsExecuted()
	if _, err := Map(NewPool(2), Sweep{Seed: 5}, 10, nil,
		func(Trial, struct{}) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if got := TrialsExecuted() - before; got < 10 {
		t.Fatalf("counted %d trials, want >= 10", got)
	}
}

func TestDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	if DefaultWorkers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default %d != GOMAXPROCS %d", DefaultWorkers(), runtime.GOMAXPROCS(0))
	}
	SetDefaultWorkers(3)
	if DefaultWorkers() != 3 || NewPool(0).Workers() != 3 {
		t.Fatal("SetDefaultWorkers not honored")
	}
	SetDefaultWorkers(0)
	if DefaultWorkers() != runtime.GOMAXPROCS(0) {
		t.Fatal("reset not honored")
	}
	if NewPool(5).Workers() != 5 {
		t.Fatal("explicit pool width not honored")
	}
}

func TestRNGDerivation(t *testing.T) {
	// The derivation is a compatibility contract with the sim package's
	// historical rngFor: seed*1000003 + salt.
	a := RNG(2, 5).Float64()
	b := RNG(2, 5).Float64()
	if a != b {
		t.Fatal("RNG not deterministic")
	}
	if RNG(2, 5).Float64() == RNG(2, 6).Float64() {
		t.Fatal("salts not distinguishing streams")
	}
}
