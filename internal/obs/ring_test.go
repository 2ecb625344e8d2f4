package obs

import (
	"testing"
	"time"
)

// TestEpochRingClockJumps drives the ring with explicit wall-clock values
// that jump forward past its reach, back by 30 min, and return. base and
// every step are whole 10 s intervals, so each slot's observations lie
// inside [now−d, now] exactly when Each may visit it.
func TestEpochRingClockJumps(t *testing.T) {
	type slot struct {
		n  int
		at time.Time
	}
	var r EpochRing[slot]
	observe := func(at time.Time) {
		s, stale := r.Slot(at)
		if stale {
			*s = slot{}
		}
		s.n++
		s.at = at
	}
	// One observation in each of the six intervals ending at base.
	for i := 5; i >= 0; i-- {
		observe(base.Add(-time.Duration(i) * windowSlotDur))
	}
	for _, step := range []struct {
		name    string
		now     time.Time
		observe int // observations recorded at now before the query
		d       time.Duration
		want    int
	}{
		{"steady short window", base, 0, WindowShort, 6},
		{"steady long window", base, 0, WindowLong, 6},
		{"forward jump past the ring's reach", base.Add(time.Hour), 0, WindowLong, 0},
		// 30 min is a whole number of ring turns: the new observations
		// reuse base's slot, and the five slots stamped after now are
		// skipped.
		{"backward jump of 30 min", base.Add(-30 * time.Minute), 2, WindowLong, 2},
		{"return to the original time", base, 0, WindowLong, 5},
		{"fresh observation after the return", base, 1, WindowShort, 6},
	} {
		for i := 0; i < step.observe; i++ {
			observe(step.now)
		}
		got := 0
		r.Each(step.now, step.d, func(s *slot) {
			got += s.n
			if s.at.Before(step.now.Add(-step.d)) || s.at.After(step.now) {
				t.Errorf("%s: visited a slot observed at %v, outside [now−%v, now=%v]",
					step.name, s.at, step.d, step.now)
			}
		})
		if got != step.want {
			t.Errorf("%s: Each saw %d observations, want %d", step.name, got, step.want)
		}
	}

	r.Clear()
	r.Each(base, WindowLong, func(*slot) { t.Error("cleared ring visited a slot") })
	if _, stale := r.Slot(base); !stale {
		t.Error("slot of a cleared ring not reported stale")
	}
}
