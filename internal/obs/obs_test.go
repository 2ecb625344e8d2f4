package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterAndTimerBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x.events") != c {
		t.Fatal("second lookup returned a different counter")
	}

	tm := r.Timer("x.stage")
	tm.Observe(2 * time.Millisecond)
	tm.Observe(4 * time.Millisecond)
	if tm.Count() != 2 {
		t.Fatalf("timer count = %d, want 2", tm.Count())
	}
	if tm.Total() != 6*time.Millisecond {
		t.Fatalf("timer total = %v, want 6ms", tm.Total())
	}
	if tm.Mean() != 3*time.Millisecond {
		t.Fatalf("timer mean = %v, want 3ms", tm.Mean())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := 1; v <= 10000; v++ {
		h.Observe(float64(v))
	}
	st := h.Summary()
	if st.Count != 10000 {
		t.Fatalf("count = %d, want 10000", st.Count)
	}
	if st.Min != 1 || st.Max != 10000 {
		t.Fatalf("min/max = %g/%g, want 1/10000", st.Min, st.Max)
	}
	if math.Abs(st.Mean-5000.5) > 1e-6 {
		t.Fatalf("mean = %g, want 5000.5", st.Mean)
	}
	// Log-bucketed estimates: one sub-bucket is 2^(1/8) ≈ +9%, so allow 10%.
	for _, q := range []struct {
		got, want float64
	}{{st.P50, 5000}, {st.P95, 9500}, {st.P99, 9900}} {
		if rel := math.Abs(q.got-q.want) / q.want; rel > 0.10 {
			t.Errorf("quantile estimate %g for true %g (rel err %.1f%%)", q.got, q.want, 100*rel)
		}
	}
}

func TestHistogramEmptyAndClamped(t *testing.T) {
	var h Histogram
	if st := h.Summary(); st.Count != 0 || st.P99 != 0 {
		t.Fatalf("empty summary = %+v", st)
	}
	h.Observe(-5)
	h.Observe(math.NaN())
	st := h.Summary()
	if st.Count != 2 || st.Min != 0 || st.Max != 0 {
		t.Fatalf("clamped summary = %+v, want two zero observations", st)
	}
}

// TestInstrumentsRaceSafe hammers one counter, one timer, and one
// histogram from many goroutines; run with -race this is the package's
// concurrency guarantee.
func TestInstrumentsRaceSafe(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			// Concurrent get-or-create on the same names plus hot updates.
			c := r.Counter("race.events")
			tm := r.Timer("race.stage")
			h := r.Histogram("race.latency")
			for i := 0; i < perG; i++ {
				c.Inc()
				tm.Observe(time.Duration(i%97) * time.Microsecond)
				h.Observe(float64(g*perG + i))
				if i%500 == 0 {
					_ = r.Snap() // snapshot under fire must not race
				}
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snap()
	if got := snap.Counters["race.events"]; got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := snap.Timers["race.stage"].Count; got != goroutines*perG {
		t.Fatalf("timer count = %d, want %d", got, goroutines*perG)
	}
	if got := snap.Histograms["race.latency"].Count; got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Reset()
	snap := r.Snap()
	if len(snap.Counters) != 0 {
		t.Fatalf("counters after reset: %v", snap.Counters)
	}
	if got := r.Counter("a").Value(); got != 0 {
		t.Fatalf("re-created counter = %d, want 0", got)
	}
}
