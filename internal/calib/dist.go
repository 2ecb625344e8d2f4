package calib

import (
	"math"
	"time"

	"hideseek/internal/obs"
)

// distSlot is one 10 s interval of observations. counts is allocated on
// the slot's first use and reused every time the ring comes around.
type distSlot struct {
	n      uint64
	counts []uint32
}

// windowDist is a rolling linear-bin distribution over [0, max) on the
// obs package's epoch ring (12 × 10 s, fixed memory, stale slots reset in
// place). The bins are linear instead of obs.Histogram's log2 buckets:
// the defense statistics live in [0, ~2.5], entirely below that bucket
// resolution. windowDist does NOT lock: the owning Calibrator's mutex
// guards all access.
type windowDist struct {
	bins int
	max  float64
	ring obs.EpochRing[distSlot]
}

func newWindowDist(bins int, max float64) *windowDist {
	return &windowDist{bins: bins, max: max}
}

// bucketOf clamps v into a bin index; values past max collapse into the
// last bin so outliers still count.
func (w *windowDist) bucketOf(v float64) int {
	if v <= 0 {
		return 0
	}
	b := int(v / w.max * float64(w.bins))
	if b >= w.bins {
		b = w.bins - 1
	}
	return b
}

// observe records v into the interval containing now.
func (w *windowDist) observe(v float64, now time.Time) {
	s, stale := w.ring.Slot(now)
	if stale {
		if s.counts == nil {
			s.counts = make([]uint32, w.bins)
		}
		s.n = 0
		clear(s.counts)
	}
	s.n++
	s.counts[w.bucketOf(v)]++
}

// merged sums every slot inside the last d (ending at now) into one
// count vector. Slots whose interval is outside the window — including a
// fully-stale ring — contribute nothing, so the caller sees zero counts
// rather than stale samples.
func (w *windowDist) merged(counts []uint64, now time.Time, d time.Duration) (n uint64) {
	clear(counts)
	w.ring.Each(now, d, func(s *distSlot) {
		n += s.n
		for b, c := range s.counts {
			counts[b] += uint64(c)
		}
	})
	return n
}

// total counts the samples inside the last d without merging bins.
func (w *windowDist) total(now time.Time, d time.Duration) (n uint64) {
	w.ring.Each(now, d, func(s *distSlot) { n += s.n })
	return n
}

// reset empties the ring (re-armed warmup starts from no samples).
func (w *windowDist) reset() { w.ring.Clear() }

// quantileOf returns the q-quantile (0 < q < 1) of a merged count vector
// as the midpoint of the bin holding the ceil(q·n)-th sample; zero when
// the vector is empty.
func quantileOf(counts []uint64, n uint64, q float64, max float64) float64 {
	if n == 0 {
		return 0
	}
	// 0-indexed rank of the ceil(q·n)-th sample.
	rank := uint64(math.Ceil(q * float64(n)))
	if rank > 0 {
		rank--
	}
	if rank >= n {
		rank = n - 1
	}
	var seen uint64
	for b, c := range counts {
		seen += c
		if seen > rank {
			return (float64(b) + 0.5) * max / float64(len(counts))
		}
	}
	return max
}
