package obs

import (
	"math"
	"time"
)

// Histogram bucket geometry: log2-spaced octaves subdivided into 8
// sub-buckets each, covering [1, 2^40) — for durations in nanoseconds
// that is 1 ns up to ~18 minutes. Values below 1 land in bucket 0 and
// values at or above the top land in the last bucket; exact min/max/sum
// are tracked separately, so quantile estimates stay clamped to observed
// extremes. Relative quantile error is bounded by one sub-bucket width,
// 2^(1/8) ≈ 9%.
const (
	bucketsPerOctave = 8
	histOctaves      = 40
	histBuckets      = histOctaves * bucketsPerOctave
)

// histCounts is one accumulator of observations: count, sum, exact
// extremes and log-bucket counts. A histogram's since-boot total and its
// window slots are all histCounts.
type histCounts struct {
	n      uint64
	sum    float64
	min    float64
	max    float64
	counts [histBuckets]uint32
}

// add records n observations of v.
func (c *histCounts) add(v float64, n uint64) {
	if c.n == 0 || v < c.min {
		c.min = v
	}
	if c.n == 0 || v > c.max {
		c.max = v
	}
	c.n += n
	c.sum += v * float64(n)
	c.counts[bucketOf(v)] += clampUint32(n)
}

// Histogram is a fixed-memory log-bucketed value histogram for
// non-negative observations (latency nanoseconds, trial costs). The zero
// value is ready to use.
//
// Every observation lands both in the since-boot total and in a rolling
// ring of per-interval window slots (12 × 10 s), under one mutex, so a
// histogram answers both "since boot" (Summary) and "right now" (Window)
// without a second instrument or a second call site.
type Histogram struct {
	win histWindow
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	b := int(math.Log2(v) * bucketsPerOctave)
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketLower returns the inclusive lower bound of bucket b.
func bucketLower(b int) float64 {
	return math.Exp2(float64(b) / bucketsPerOctave)
}

// Observe records one value. Negative and NaN values are clamped to 0.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v in one critical section — the
// bulk form the runtime profiler uses to replay a runtime/metrics bucket
// delta (count of events at one representative value) without n lock
// acquisitions. n == 0 is a no-op.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.win.observeN(v, n, time.Now())
}

// clampUint32 saturates a bulk count at the bucket counter's width.
func clampUint32(n uint64) uint32 {
	if n > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(n)
}

// BucketCount is one cumulative Prometheus-style bucket: Count
// observations with value ≤ UpperBound (math.Inf(1) on the final bucket).
type BucketCount struct {
	UpperBound float64
	Count      uint64
}

// HistogramStats is the JSON-ready summary of one histogram.
type HistogramStats struct {
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Buckets are the cumulative counts of the non-empty log buckets plus
	// the +Inf bucket, for Prometheus exposition. Deliberately excluded
	// from JSON so run manifests stay compact.
	Buckets []BucketCount `json:"-"`
}

// histMerge sums histCounts (the total or window slots) into one summary.
type histMerge struct {
	n      uint64
	sum    float64
	min    float64
	max    float64
	counts [histBuckets]uint64
}

// add folds c into the merge; empty accumulators contribute nothing.
func (m *histMerge) add(c *histCounts) {
	if c.n == 0 {
		return
	}
	if m.n == 0 || c.min < m.min {
		m.min = c.min
	}
	if m.n == 0 || c.max > m.max {
		m.max = c.max
	}
	m.n += c.n
	m.sum += c.sum
	for b, k := range c.counts {
		m.counts[b] += uint64(k)
	}
}

// stats turns the merged bucket counts plus exact extremes into the
// summary: mean, interpolated quantiles, and cumulative buckets.
func (m *histMerge) stats() HistogramStats {
	if m.n == 0 {
		return HistogramStats{}
	}
	st := HistogramStats{Count: int64(m.n), Min: m.min, Max: m.max, Sum: m.sum, Mean: m.sum / float64(m.n)}
	st.P50 = quantileFrom(m.counts[:], m.n, 0.50, m.min, m.max)
	st.P95 = quantileFrom(m.counts[:], m.n, 0.95, m.min, m.max)
	st.P99 = quantileFrom(m.counts[:], m.n, 0.99, m.min, m.max)
	var cum uint64
	for b, c := range m.counts {
		if c == 0 {
			continue
		}
		cum += c
		st.Buckets = append(st.Buckets, BucketCount{UpperBound: bucketLower(b + 1), Count: cum})
	}
	st.Buckets = append(st.Buckets, BucketCount{UpperBound: math.Inf(1), Count: m.n})
	return st
}

// Summary returns the since-boot counts, extremes, and the p50/p95/p99
// estimates.
func (h *Histogram) Summary() HistogramStats {
	var m histMerge
	h.win.mu.Lock()
	m.add(&h.win.total)
	h.win.mu.Unlock()
	return m.stats()
}

// Window returns the summary of everything observed during the last d
// (clamped to the ring's two-minute reach, rounded to whole 10 s
// intervals). The ring trades exactness for fixed memory: a window covers
// between d-10s and d of history depending on interval phase.
func (h *Histogram) Window(d time.Duration) HistogramStats {
	return h.win.stats(time.Now(), d)
}

// quantileFrom walks the merged bucket counts to the q-quantile rank and
// interpolates linearly inside the landing bucket, clamped to the exact
// observed [min, max].
func quantileFrom(merged []uint64, n uint64, q, min, max float64) float64 {
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	var cum float64
	for b, c := range merged {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank < next {
			lo, hi := bucketLower(b), bucketLower(b+1)
			frac := (rank - cum + 0.5) / float64(c)
			v := lo + (hi-lo)*frac
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
		cum = next
	}
	return max
}
