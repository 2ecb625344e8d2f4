package obs

import (
	"sync"
	"time"
)

// histWindow holds a Histogram's observations: the since-boot total
// behind Summary and the rolling ring behind Window, one histCounts per
// 10 s interval. One mutex guards both: observations come at per-frame /
// per-trial event rates (never per-sample loops), so a single short
// critical section is cheap enough.
type histWindow struct {
	mu    sync.Mutex
	total histCounts
	ring  EpochRing[histCounts]
}

// observe records v into the total and the interval containing now.
func (w *histWindow) observe(v float64, now time.Time) { w.observeN(v, 1, now) }

// observeN records n observations of v into the total and the interval
// containing now (the bulk form behind Histogram.ObserveN).
func (w *histWindow) observeN(v float64, n uint64, now time.Time) {
	w.mu.Lock()
	w.total.add(v, n)
	s, stale := w.ring.Slot(now)
	if stale {
		*s = histCounts{}
	}
	s.add(v, n)
	w.mu.Unlock()
}

// stats merges every slot that falls inside the last d (ending at now)
// into one summary.
func (w *histWindow) stats(now time.Time, d time.Duration) HistogramStats {
	var m histMerge
	w.mu.Lock()
	w.ring.Each(now, d, m.add)
	w.mu.Unlock()
	return m.stats()
}

// WindowedStats pairs the two rolling-window summaries every histogram
// maintains: the last ~60 s and the last ~2 min.
type WindowedStats struct {
	Last60s  HistogramStats `json:"last_60s"`
	Last120s HistogramStats `json:"last_120s"`
}

// Windowed returns both rolling summaries of the histogram at once.
func (h *Histogram) Windowed() WindowedStats {
	now := time.Now()
	return WindowedStats{
		Last60s:  h.win.stats(now, WindowShort),
		Last120s: h.win.stats(now, WindowLong),
	}
}
