package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// CorrelatorConfig parameterizes a Correlator plan.
type CorrelatorConfig struct {
	// UseDirect forces the direct path: every lag is ExactAt, the
	// reference implementation the parity tests compare against. When
	// false the correlator screens lags with FFT overlap-save fast
	// convolution and confirms the deciding ones with ExactAt.
	UseDirect bool
}

// Correlator is a reusable plan for the normalized preamble cross-
// correlation that dominates frame synchronization:
//
//	v(l) = |Σ_n x[l+n]·conj(ref[n])| / √(E_win(l)·E_ref)
//
// where E_win(l) is the energy of the window's own len(ref) samples.
// ExactAt computes v(l) directly from those samples, so a lag's exact
// value is data-local: it does not depend on where the slice holding the
// lag starts. NormalizedCrossCorrelate computes the same value bit for bit.
//
// On the default path every lag is first screened by FFT overlap-save
// fast convolution: per lag, two radix-2 transforms amortize to
// ~2·N·log₂N / (N−M+1) butterflies instead of M complex MACs (a >10×
// algorithmic win at the ZigBee SHR length, M≈638, N=2048), normalized
// by an O(1)-per-lag sliding-window energy recurrence that each block
// starts afresh from its first window's directly summed energy. When
// fewer lags remain than make a block worth its transforms (k·M <
// N·bits.Len(N), decided at each block start), they are screened with
// ExactAt instead. Screen values differ from exact ones by rounding, and
// that rounding depends on where the block holding the lag starts, so
// FirstCrossing never decides or reports from a screen value: any lag
// within syncGuard of a decision is confirmed with ExactAt.
//
// The screen reads a sample whose |x|² is not finite (NaN, ±Inf, or a
// magnitude whose square overflows) as zero, both in the transformed
// block and in the energy recurrence, so one such sample cannot poison
// the rest of its block. A lag whose window holds such a sample screens
// as 0 in a block and as its own exact value (NaN or 0) when ExactAt
// screens it: either way it can never decide.
//
// FirstCrossing can resume across calls on one stream (see Resume): the
// correlator then keeps the screen values it already computed by
// absolute lag, so a stream scanner screens each lag once instead of
// once per search.
//
// A Correlator reuses internal block and lag scratch and is NOT safe for
// concurrent use; Clone gives another goroutine its own scratch while
// sharing the immutable reference spectrum.
type Correlator struct {
	ref       []complex128 // immutable; shared across clones
	refEnergy float64
	direct    bool

	// FFT overlap-save state (nil/0 when direct): power-of-two block size
	// n, valid lags per block step = n−len(ref)+1, the shared
	// conj(FFT(ref)) spectrum, and per-instance scratch.
	n       int
	step    int
	refSpec []complex128 // immutable; shared across clones
	block   []complex128 // scratch; owned by this instance

	screenBuf []float64 // sync-search scratch: screen values, grown lazily
	cur       cursor    // FirstCrossing's resumable state over screenBuf

	screened int // lags screened since NewCorrelator or Clone (tests read it)
}

// cursor is FirstCrossing's resumable state (see Resume): screenBuf[0:done]
// holds final screen values for the absolute lags at, at+1, ...
type cursor struct {
	at      int64
	done    int
	resumed bool // Resume(at) was called; the next search consumes it
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
	// The smallest power of two ≥ 2·len(ref): every block yields at
	// least len(ref)+1 valid lags.
	m := len(ref)
	n := 1
	for n < 2*m {
		n <<= 1
	}
	c.n = n
	c.step = n - m + 1
	c.block = make([]complex128, n)
	// Circular correlation in one multiply: IFFT(FFT(x)·conj(FFT(ref)))
	// evaluates Σ_n x[(l+n) mod N]·conj(ref[n]); lags 0..N−M avoid the
	// wraparound and are the block's valid outputs.
	spec := make([]complex128, n)
	copy(spec, c.ref)
	FFTInto(spec, spec)
	for i, v := range spec {
		spec[i] = cmplx.Conj(v)
	}
	c.refSpec = spec
	return c, nil
}

// Clone returns a correlator sharing the immutable reference and
// spectrum, with fresh scratch — the cheap way to hand each worker
// goroutine its own instance.
func (c *Correlator) Clone() *Correlator {
	out := *c
	if c.block != nil {
		out.block = make([]complex128, len(c.block))
	}
	out.screenBuf = nil
	out.cur = cursor{}
	out.screened = 0
	return &out
}

// Lags returns the number of correlation lags a signal of sigLen samples
// yields (≤ 0 when the signal is shorter than the reference).
func (c *Correlator) Lags(sigLen int) int { return sigLen - len(c.ref) + 1 }

// scan is FirstCrossing's lazily evaluated correlation of x into dst,
// one value per lag (len(dst) = Lags(len(x))): lags are computed in
// prefix order on demand, so a search over a long capture pays only for
// the prefix it inspects. dst[0:done] is final: exact values on the
// direct path, screen values on the FFT path.
//
// Each block starts its energy recurrence from a direct sum, so a value
// depends only on the lag and where its block starts, never on the lags
// before it: rounding drift cannot outlive one block on an endless
// stream, and a search may start its blocks at any lag (a resumed
// FirstCrossing starts at the first lag it has not screened).
type scan struct {
	c    *Correlator
	x    []complex128
	dst  []float64
	done int
}

// computeThrough extends the computed prefix to cover lag, which must be
// below len(dst), allocating nothing. Calls for already-computed lags
// return immediately, so a sequential consumer can call it per lag.
func (s *scan) computeThrough(lag int) {
	lags := len(s.dst)
	if lag < s.done {
		return
	}
	c := s.c
	if c.refEnergy == 0 {
		clear(s.dst[s.done:])
		c.screened += lags - s.done
		s.done = lags
		return
	}
	m := len(c.ref)
	for s.done <= lag {
		pos := s.done
		if c.direct || (lags-pos)*m < c.n*bits.Len(uint(c.n)) {
			// Direct path, or too few lags left to pay for a block's
			// transforms: ExactAt per lag, only as far as asked.
			for l := pos; l <= lag; l++ {
				s.dst[l] = c.ExactAt(s.x, l)
			}
			c.screened += lag + 1 - pos
			s.done = lag + 1
			return
		}
		// One overlap-save block: transform x[pos:pos+n], zero-padded at
		// the signal end, for lags pos..pos+step−1.
		src := s.x[pos:min(pos+c.n, len(s.x))]
		for i, v := range src {
			if _, bad := screenSq(v); bad != 0 {
				v = 0
			}
			c.block[i] = v
		}
		clear(c.block[len(src):])
		FFTInto(c.block, c.block)
		for i, v := range c.block {
			c.block[i] = v * c.refSpec[i]
		}
		IFFTInto(c.block, c.block)
		v := min(c.step, lags-pos)
		s.normalize(pos, pos+v)
		c.screened += v
		s.done = pos + v
	}
}

// normalize finalizes the screen values dst[lo:hi] from the block's
// numerators. The window energy starts as a direct sum over lag lo's
// window and runs by recurrence to hi, so its rounding depends on where
// the block starts, which is why screen values never decide a sync on
// their own.
func (s *scan) normalize(lo, hi int) {
	c := s.c
	m := len(c.ref)
	var w float64
	var bad int
	for _, v := range s.x[lo : lo+m] {
		e, b := screenSq(v)
		w += e
		bad += b
	}
	for l := lo; l < hi; l++ {
		if denom := math.Sqrt(w * c.refEnergy); denom > 0 && bad == 0 {
			s.dst[l] = cmplx.Abs(c.block[l-lo]) / denom
		} else {
			s.dst[l] = 0
		}
		if l+1 < hi {
			in, inBad := screenSq(s.x[l+m])
			out, outBad := screenSq(s.x[l])
			w += in - out
			bad += inBad - outBad
			if w < 0 {
				w = 0 // guard against rounding drift
			}
		}
	}
}

// screenSq is |v|² as the screen reads it: 0, with bad = 1, when |v|² is
// not finite.
func screenSq(v complex128) (e float64, bad int) {
	e = sqAbs(v)
	if !(e <= math.MaxFloat64) {
		return 0, 1
	}
	return e, 0
}

// ExactAt returns the normalized correlation of x at one lag from that
// lag's own len(ref) samples, numerator and window energy both summed
// directly: bit-for-bit NormalizedCrossCorrelate(x, ref)[lag], and the
// same bits for any slice of x that holds the lag's window. O(len(ref)).
func (c *Correlator) ExactAt(x []complex128, lag int) float64 {
	m := len(c.ref)
	if lag < 0 || lag+m > len(x) {
		panic(fmt.Sprintf("dsp: ExactAt lag %d outside %d-sample signal (ref %d)", lag, len(x), m))
	}
	return exactLag(x[lag:lag+m], c.ref, c.refEnergy)
}

// syncGuard is how far below the threshold, or below the screen maximum
// of a refinement range, a screen value may sit and still be confirmed
// with ExactAt. Screen and exact values differ by the transform's
// rounding: against a 200-bit DFT, the FFT's relative error measured
// 2.4e-14 at 2048 points and 3.9e-13 at 16384 points. For inputs of
// moderate dynamic range that is far below this margin, so no sync
// decision and no reported peak depends on the screen's rounding. The
// open exception is a capture holding a finite but huge sample (1e10 or
// more near a frame): its rounding then swamps the window's own energy,
// so the screen can miss a lag that ExactAt would pass, and a frame the
// direct search finds goes unreported.
const syncGuard = 1e-9

// FirstCrossing finds the EARLIEST frame start in x: the first lag whose
// exact value reaches threshold, refined to the largest exact value
// within the following len(ref) lags, because partial-overlap correlation
// crosses the threshold before the true start. It returns the refined lag
// and its exact value. When no lag crosses, found is false and peak is
// the exact value at the earliest screen maximum (0 when that is NaN), a
// diagnostic no decision reads.
//
// The search is lazy: only the inspected prefix of the correlation is
// computed, and after a Resume only the lags the correlator has not
// screened yet. Its results never depend on the calls before it. x must
// hold at least len(ref) samples. The screen lives in the correlator's
// lag scratch, so the search allocates nothing once that has grown to
// the largest x seen.
func (c *Correlator) FirstCrossing(x []complex128, threshold float64) (lag int, peak float64, found bool) {
	cur := c.cur
	screen, keep := c.scratch(len(x))
	s := scan{c: c, x: x, dst: screen, done: keep}
	lag, peak, found = s.firstCrossing(threshold)
	if cur.resumed {
		c.cur = cursor{at: cur.at, done: s.done}
	}
	return lag, peak, found
}

// Resume declares that the next FirstCrossing searches a window whose
// first sample is sample at of a stream, and that every sample of the
// stream keeps its value once a search has seen it. That search reuses
// the screen values this correlator kept from its last resumed search
// for lags at or past at, and starts its blocks at the first lag it has
// not screened; a stream scanner that calls Resume before each search
// screens each lag once. A FirstCrossing without a Resume before it is
// fresh and drops the kept values.
func (c *Correlator) Resume(at int64) {
	keep := 0
	if d := at - c.cur.at; d >= 0 && d < int64(c.cur.done) {
		keep = copy(c.screenBuf, c.screenBuf[d:c.cur.done])
	}
	c.cur = cursor{at: at, done: keep, resumed: true}
}

// firstCrossing runs the search over the scan's lags.
func (s *scan) firstCrossing(threshold float64) (int, float64, bool) {
	c, x, screen := s.c, s.x, s.dst
	for i := range screen {
		s.computeThrough(i)
		if screen[i] < threshold-syncGuard {
			continue
		}
		v := c.ExactAt(x, i)
		if !(v >= threshold) {
			continue
		}
		end := min(i+len(c.ref), len(screen)-1)
		s.computeThrough(end)
		if best, bestV := s.peakIn(i, end); best >= 0 {
			return best, bestV, true
		}
		return i, v, true
	}
	return s.noCrossing()
}

// scratch returns the lag scratch resized for a sigLen-sample signal and
// how many of its leading values are final: after a Resume, the values
// Resume kept; otherwise 0. Either way it consumes the Resume and drops
// the kept values, which a resumed FirstCrossing records afresh.
func (c *Correlator) scratch(sigLen int) ([]float64, int) {
	lags := c.Lags(sigLen)
	if lags < 1 {
		panic("dsp: sync search on undersized input")
	}
	keep := 0
	if c.cur.resumed {
		keep = min(c.cur.done, lags)
	}
	c.cur = cursor{}
	if cap(c.screenBuf) < lags {
		grown := make([]float64, lags)
		copy(grown, c.screenBuf[:keep])
		c.screenBuf = grown
	}
	return c.screenBuf[:lags], keep
}

// peakIn returns the earliest lag in [lo, hi] with the largest exact
// value among the lags whose screen value lies within syncGuard of the
// range's largest non-NaN screen value, and that value; -1 when none has
// a non-NaN exact value.
func (s *scan) peakIn(lo, hi int) (int, float64) {
	top := math.Inf(-1)
	for _, v := range s.dst[lo : hi+1] {
		if v > top {
			top = v
		}
	}
	best, bestV := -1, -1.0
	for j := lo; j <= hi; j++ {
		if s.dst[j] >= top-syncGuard {
			if v := s.c.ExactAt(s.x, j); v > bestV {
				best, bestV = j, v
			}
		}
	}
	return best, bestV
}

// noCrossing is the not-found result: the exact value at the earliest
// screen maximum, or 0 when that is NaN or every screen value is NaN.
func (s *scan) noCrossing() (int, float64, bool) {
	if p := PeakIndex(s.dst); p >= 0 {
		if v := s.c.ExactAt(s.x, p); v == v {
			return 0, v, false
		}
	}
	return 0, 0, false
}
