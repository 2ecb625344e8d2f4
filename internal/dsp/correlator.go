package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// CorrelatorConfig parameterizes a Correlator plan.
type CorrelatorConfig struct {
	// UseDirect forces the direct O(lags×len(ref)) accumulation path,
	// the reference implementation the parity tests compare against.
	// When false the correlator uses FFT overlap-save fast convolution.
	UseDirect bool
	// FFTSize overrides the overlap-save block size. 0 picks the
	// smallest power of two ≥ 2·len(ref). An explicit size must be a
	// power of two ≥ 2·len(ref) (so every block yields at least
	// len(ref)+1 valid lags).
	FFTSize int
}

// Correlator is a reusable plan for the normalized preamble cross-
// correlation that dominates frame synchronization. It precomputes the
// conjugated spectrum of a fixed reference once and then evaluates
//
//	dst[l] = |Σ_n x[l+n]·conj(ref[n])| / √(E_win(l)·E_ref)
//
// for all lags of arbitrarily many signals via FFT overlap-save fast
// convolution: per lag, two radix-2 transforms amortize to ~2·N·log₂N /
// (N−M+1) butterflies instead of M complex MACs — a >10× algorithmic
// win at the ZigBee SHR length (M≈638, N=2048).
//
// The FFT and direct paths round differently in the correlation
// numerator, so the contract is decision parity, not bitwise value
// parity: peak locations and threshold decisions agree on real signals,
// and ExactAt reproduces the direct path's value bit-for-bit at any
// single lag for callers that must report (or gate on) the exact number.
// The normalization denominators are bitwise identical on both paths:
// both run the same O(N) incremental sliding-window energy recurrence.
//
// A Correlator reuses internal block scratch and is NOT safe for
// concurrent use; Clone gives another goroutine its own scratch while
// sharing the immutable reference spectrum.
type Correlator struct {
	ref       []complex128 // immutable; shared across clones
	refEnergy float64
	direct    bool

	// FFT overlap-save state (nil/0 when direct): block size n, valid
	// lags per block step = n−len(ref)+1, the shared conj(FFT(ref))
	// spectrum, a stateless power-of-two plan, and per-instance scratch.
	n       int
	step    int
	refSpec []complex128 // immutable; shared across clones
	plan    *Plan        // power-of-two ⇒ stateless, shared across clones
	block   []complex128 // scratch; owned by this instance
}

// NewCorrelator builds a correlation plan for the given reference. The
// reference is copied, so the caller may reuse its slice.
func NewCorrelator(ref []complex128, cfg CorrelatorConfig) (*Correlator, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("dsp: correlator with empty reference")
	}
	c := &Correlator{
		ref:    append([]complex128(nil), ref...),
		direct: cfg.UseDirect,
	}
	c.refEnergy = Energy(c.ref)
	if c.direct {
		return c, nil
	}
	m := len(ref)
	n := cfg.FFTSize
	if n == 0 {
		n = 1
		for n < 2*m {
			n <<= 1
		}
	}
	if n&(n-1) != 0 || n < 2*m {
		return nil, fmt.Errorf("dsp: correlator FFT size %d must be a power of two ≥ %d", n, 2*m)
	}
	c.n = n
	c.step = n - m + 1
	c.plan = NewPlan(n)
	c.block = make([]complex128, n)
	// Circular correlation in one multiply: IFFT(FFT(x)·conj(FFT(ref)))
	// evaluates Σ_n x[(l+n) mod N]·conj(ref[n]); lags 0..N−M avoid the
	// wraparound and are the block's valid outputs.
	spec := make([]complex128, n)
	copy(spec, c.ref)
	c.plan.Forward(spec, spec)
	for i, v := range spec {
		spec[i] = cmplx.Conj(v)
	}
	c.refSpec = spec
	return c, nil
}

// Clone returns a correlator sharing the immutable reference, spectrum,
// and (stateless, power-of-two) FFT plan, with fresh block scratch — the
// cheap way to hand each worker goroutine its own instance.
func (c *Correlator) Clone() *Correlator {
	out := *c
	if c.block != nil {
		out.block = make([]complex128, len(c.block))
	}
	return &out
}

// RefLen returns the reference length.
func (c *Correlator) RefLen() int { return len(c.ref) }

// Direct reports whether this plan runs the direct accumulation path.
func (c *Correlator) Direct() bool { return c.direct }

// FFTSize returns the overlap-save block size, or 0 on the direct path.
func (c *Correlator) FFTSize() int { return c.n }

// Lags returns the number of correlation lags a signal of sigLen samples
// yields (≤ 0 when the signal is shorter than the reference).
func (c *Correlator) Lags(sigLen int) int { return sigLen - len(c.ref) + 1 }

// Correlate computes the normalized cross-correlation of x against the
// reference into a new slice; nil when x is shorter than the reference.
func (c *Correlator) Correlate(x []complex128) []float64 {
	lags := c.Lags(len(x))
	if lags < 1 {
		return nil
	}
	return c.CorrelateInto(make([]float64, lags), x)
}

// CorrelateInto computes the normalized cross-correlation of x against
// the reference into dst, which must have length Lags(len(x)) ≥ 1. It
// mirrors NormalizedCrossCorrelateInto's contract — panics on undersized
// input or a mis-sized buffer, allocates nothing, returns dst.
func (c *Correlator) CorrelateInto(dst []float64, x []complex128) []float64 {
	m := len(c.ref)
	lags := len(x) - m + 1
	if lags < 1 {
		panic("dsp: CorrelateInto on undersized input")
	}
	if len(dst) != lags {
		panic(fmt.Sprintf("dsp: correlate into %d-lag buffer, want %d", len(dst), lags))
	}
	if c.direct {
		return NormalizedCrossCorrelateInto(dst, x, c.ref)
	}
	if c.refEnergy == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	// Overlap-save: each block transforms x[pos:pos+n] (zero-padded at
	// the stream end) and yields valid lags pos..pos+step−1.
	for pos := 0; pos < lags; pos += c.step {
		have := copy(c.block, x[pos:])
		for i := have; i < c.n; i++ {
			c.block[i] = 0
		}
		c.plan.Forward(c.block, c.block)
		for i, v := range c.block {
			c.block[i] = v * c.refSpec[i]
		}
		c.plan.Inverse(c.block, c.block)
		v := c.step
		if v > lags-pos {
			v = lags - pos
		}
		for l := 0; l < v; l++ {
			dst[pos+l] = cmplx.Abs(c.block[l])
		}
	}
	// Normalize with the same incremental sliding-window energy
	// recurrence as the direct path — bitwise-identical denominators.
	var winEnergy float64
	for n := 0; n < m; n++ {
		winEnergy += sqAbs(x[n])
	}
	for l := 0; l < lags; l++ {
		denom := math.Sqrt(winEnergy * c.refEnergy)
		if denom > 0 {
			dst[l] /= denom
		} else {
			dst[l] = 0
		}
		if l+1 < lags {
			winEnergy += sqAbs(x[l+m]) - sqAbs(x[l])
			if winEnergy < 0 {
				winEnergy = 0 // guard against rounding drift
			}
		}
	}
	return dst
}

// CorrelationScan is a lazily evaluated CorrelateInto: lags are computed
// in prefix order on demand, so a first-crossing search (frame sync over
// a long capture) pays only for the prefix it actually inspects instead
// of the whole lag range. Values in dst[0:Done()] are bitwise identical
// to what CorrelateInto would have produced — the same block transforms
// and the same sliding-window energy recurrence, just segmented.
//
// A scan borrows the correlator's block scratch plus the dst and x
// slices handed to ScanInto: finish (or abandon) it before using the
// correlator for anything else, and never run two scans at once.
type CorrelationScan struct {
	c         *Correlator
	x         []complex128
	dst       []float64
	lags      int
	done      int     // computed prefix length; dst[0:done] is final
	winEnergy float64 // sliding-window energy state at lag done
	started   bool
}

// ScanInto prepares a lazy correlation of x into dst with CorrelateInto's
// sizing contract (panics on undersized input or mis-sized buffer).
// Nothing is computed until ComputeThrough; dst entries beyond the
// computed prefix hold stale values.
func (c *Correlator) ScanInto(s *CorrelationScan, dst []float64, x []complex128) {
	lags := len(x) - len(c.ref) + 1
	if lags < 1 {
		panic("dsp: ScanInto on undersized input")
	}
	if len(dst) != lags {
		panic(fmt.Sprintf("dsp: correlate into %d-lag buffer, want %d", len(dst), lags))
	}
	*s = CorrelationScan{c: c, x: x, dst: dst, lags: lags}
}

// Done returns the computed prefix length: dst[0:Done()] is final.
func (s *CorrelationScan) Done() int { return s.done }

// Lags returns the total lag count of the scan.
func (s *CorrelationScan) Lags() int { return s.lags }

// ComputeThrough extends the computed prefix to cover lag (clamped to the
// last lag), allocating nothing. Calls for already-computed lags return
// immediately, so a sequential consumer can call it per lag for free.
func (s *CorrelationScan) ComputeThrough(lag int) {
	if lag >= s.lags {
		lag = s.lags - 1
	}
	if lag < s.done {
		return
	}
	c := s.c
	if !s.started {
		s.started = true
		if c.refEnergy == 0 {
			for i := range s.dst {
				s.dst[i] = 0
			}
			s.done = s.lags
			return
		}
		var w float64
		for n := 0; n < len(c.ref); n++ {
			w += sqAbs(s.x[n])
		}
		s.winEnergy = w
	}
	if s.done >= s.lags {
		return
	}
	if c.direct {
		// Direct path: numerator + normalization per lag, in the exact
		// order of NormalizedCrossCorrelateInto.
		for l := s.done; l <= lag; l++ {
			var acc complex128
			for n, r := range c.ref {
				acc += s.x[l+n] * cmplx.Conj(r)
			}
			s.normalize(l, cmplx.Abs(acc))
		}
		s.done = lag + 1
		return
	}
	// FFT path: whole overlap-save blocks until the prefix covers lag.
	// done always sits on a block boundary here, exactly as CorrelateInto
	// visits pos = 0, step, 2·step, ...
	for s.done <= lag {
		pos := s.done
		have := copy(c.block, s.x[pos:])
		for i := have; i < c.n; i++ {
			c.block[i] = 0
		}
		c.plan.Forward(c.block, c.block)
		for i, v := range c.block {
			c.block[i] = v * c.refSpec[i]
		}
		c.plan.Inverse(c.block, c.block)
		v := c.step
		if v > s.lags-pos {
			v = s.lags - pos
		}
		for l := 0; l < v; l++ {
			s.normalize(pos+l, cmplx.Abs(c.block[l]))
		}
		s.done = pos + v
	}
}

// normalize finalizes dst[l] from its numerator magnitude and advances
// the sliding-window energy recurrence — the same arithmetic, in the
// same order, as the tail loop of CorrelateInto.
func (s *CorrelationScan) normalize(l int, num float64) {
	denom := math.Sqrt(s.winEnergy * s.c.refEnergy)
	if denom > 0 {
		s.dst[l] = num / denom
	} else {
		s.dst[l] = 0
	}
	if l+1 < s.lags {
		m := len(s.c.ref)
		s.winEnergy += sqAbs(s.x[l+m]) - sqAbs(s.x[l])
		if s.winEnergy < 0 {
			s.winEnergy = 0 // guard against rounding drift
		}
	}
}

// ExactAt returns the normalized correlation of x at one lag computed
// with the direct path's exact accumulation order — bit-for-bit equal to
// NormalizedCrossCorrelate(x, ref)[lag], including the incremental
// window-energy recurrence that runs from lag 0 (its rounding is part of
// the direct path's output). O(lag + len(ref)); callers use it once per
// sync decision to report values that are byte-identical to the direct
// path whenever the decided lag matches.
func (c *Correlator) ExactAt(x []complex128, lag int) float64 {
	m := len(c.ref)
	if lag < 0 || lag+m > len(x) {
		panic(fmt.Sprintf("dsp: ExactAt lag %d outside %d-sample signal (ref %d)", lag, len(x), m))
	}
	if c.refEnergy == 0 {
		return 0
	}
	var winEnergy float64
	for n := 0; n < m; n++ {
		winEnergy += sqAbs(x[n])
	}
	for l := 0; l < lag; l++ {
		winEnergy += sqAbs(x[l+m]) - sqAbs(x[l])
		if winEnergy < 0 {
			winEnergy = 0
		}
	}
	var acc complex128
	for n, r := range c.ref {
		acc += x[lag+n] * cmplx.Conj(r)
	}
	denom := math.Sqrt(winEnergy * c.refEnergy)
	if denom <= 0 {
		return 0
	}
	return cmplx.Abs(acc) / denom
}
