package obs

import (
	"testing"
	"time"
)

// base is an arbitrary fixed instant aligned handily off slot boundaries.
var base = time.Unix(1_700_000_000, 0)

func TestWindowBasicStats(t *testing.T) {
	var w histWindow
	for _, v := range []float64{100, 200, 300, 400} {
		w.observe(v, base)
	}
	st := w.stats(base, WindowShort)
	if st.Count != 4 {
		t.Fatalf("count %d, want 4", st.Count)
	}
	if st.Min != 100 || st.Max != 400 {
		t.Errorf("min/max %g/%g, want 100/400", st.Min, st.Max)
	}
	if st.Sum != 1000 {
		t.Errorf("sum %g, want 1000", st.Sum)
	}
	if st.P50 < 100 || st.P50 > 400 {
		t.Errorf("p50 %g outside observed range", st.P50)
	}
}

func TestWindowExpiry(t *testing.T) {
	var w histWindow
	w.observe(42, base)

	// Still visible in both windows just before the short horizon...
	at := base.Add(50 * time.Second)
	if st := w.stats(at, WindowShort); st.Count != 1 {
		t.Errorf("at +50s: short-window count %d, want 1", st.Count)
	}
	// ...out of the 60s window at +70s but inside the 120s window...
	at = base.Add(70 * time.Second)
	if st := w.stats(at, WindowShort); st.Count != 0 {
		t.Errorf("at +70s: short-window count %d, want 0", st.Count)
	}
	if st := w.stats(at, WindowLong); st.Count != 1 {
		t.Errorf("at +70s: long-window count %d, want 1", st.Count)
	}
	// ...and gone entirely past the ring's reach.
	at = base.Add(130 * time.Second)
	if st := w.stats(at, WindowLong); st.Count != 0 {
		t.Errorf("at +130s: long-window count %d, want 0", st.Count)
	}
}

// TestWindowSlotReuse: when an epoch wraps back onto a stale ring slot,
// the slot is reset rather than accumulating ghost counts.
func TestWindowSlotReuse(t *testing.T) {
	var w histWindow
	w.observe(10, base)
	// Exactly windowSlots intervals later the same ring slot comes around.
	later := base.Add(windowSlots * windowSlotDur)
	w.observe(99, later)
	st := w.stats(later, WindowLong)
	if st.Count != 1 {
		t.Fatalf("count %d after slot reuse, want 1", st.Count)
	}
	if st.Min != 99 || st.Max != 99 {
		t.Errorf("min/max %g/%g carry stale slot data", st.Min, st.Max)
	}
}

// TestWindowFullyStaleRing: with EVERY ring slot populated and then aged
// past the ring's reach, both windows must report empty stats — zero
// count and zeroed quantiles, never the stale slots' values. The
// calibration drift monitor leans on this edge: an idle session's window
// must read as "no data", not as the last traffic it ever saw.
func TestWindowFullyStaleRing(t *testing.T) {
	var w histWindow
	for i := 0; i < windowSlots; i++ {
		w.observe(float64(1000+i), base.Add(time.Duration(i)*windowSlotDur))
	}
	full := base.Add((windowSlots - 1) * windowSlotDur)
	if st := w.stats(full, WindowLong); st.Count != windowSlots {
		t.Fatalf("full ring count %d, want %d", st.Count, windowSlots)
	}
	// Far past the ring's reach every slot is stale.
	later := full.Add(10 * WindowLong)
	for _, width := range []time.Duration{WindowShort, WindowLong} {
		st := w.stats(later, width)
		if st.Count != 0 || st.Sum != 0 {
			t.Errorf("stale ring reports count/sum %d/%g over %v", st.Count, st.Sum, width)
		}
		if st.Min != 0 || st.Max != 0 || st.P50 != 0 || st.P95 != 0 || st.P99 != 0 {
			t.Errorf("stale ring leaks quantiles over %v: %+v", width, st)
		}
	}
	// And a single fresh observation fully owns the reused slot.
	w.observe(7, later)
	if st := w.stats(later, WindowShort); st.Count != 1 || st.Min != 7 || st.Max != 7 {
		t.Errorf("post-stale observation stats %+v, want the single fresh sample", st)
	}
}

func TestWindowMergesAcrossSlots(t *testing.T) {
	var w histWindow
	w.observe(1, base)
	w.observe(2, base.Add(windowSlotDur))
	w.observe(3, base.Add(2*windowSlotDur))
	st := w.stats(base.Add(2*windowSlotDur), WindowShort)
	if st.Count != 3 || st.Sum != 6 {
		t.Fatalf("count/sum %d/%g, want 3/6", st.Count, st.Sum)
	}
}

func TestWindowZeroDuration(t *testing.T) {
	var w histWindow
	w.observe(5, base)
	if st := w.stats(base, 0); st.Count != 0 {
		t.Fatalf("zero-duration window reports %d observations", st.Count)
	}
}

// TestHistogramWindowedFeed: the public path — Observe feeds the rolling
// ring, Windowed reports it.
func TestHistogramWindowedFeed(t *testing.T) {
	var h Histogram
	h.Observe(123)
	ws := h.Windowed()
	if ws.Last60s.Count != 1 || ws.Last120s.Count != 1 {
		t.Fatalf("windowed counts %d/%d, want 1/1", ws.Last60s.Count, ws.Last120s.Count)
	}
	if sum := h.Summary(); sum.Count != 1 {
		t.Fatalf("cumulative count %d, want 1", sum.Count)
	}
}

// TestHistogramObserveZeroAllocs: the per-frame recording path — the
// sharded cumulative counts plus the windowed ring — and the ring walk
// behind Windowed allocate nothing.
func TestHistogramObserveZeroAllocs(t *testing.T) {
	var h Histogram
	v := 0.0
	if n := testing.AllocsPerRun(100, func() { v++; h.Observe(v) }); n != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", n)
	}
	now := time.Now()
	var merged uint64
	n := testing.AllocsPerRun(100, func() {
		var m histMerge
		h.win.mu.Lock()
		h.win.ring.Each(now, WindowLong, m.add)
		h.win.mu.Unlock()
		merged = m.n
	})
	if n != 0 {
		t.Fatalf("windowed merge allocates %v per call, want 0", n)
	}
	if ws := h.Windowed(); ws.Last120s.Count != 101 || merged != 101 {
		t.Fatalf("windowed count %d (merge %d), want 101", ws.Last120s.Count, merged)
	}
}
