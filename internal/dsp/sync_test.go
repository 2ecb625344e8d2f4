package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// syncCorrelators returns an FFT-path and a direct-path correlator.
func syncCorrelators(t testing.TB, ref []complex128) map[string]*Correlator {
	t.Helper()
	out := map[string]*Correlator{}
	for name, direct := range map[string]bool{"fft": false, "direct": true} {
		c, err := NewCorrelator(ref, CorrelatorConfig{UseDirect: direct})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = c
	}
	return out
}

// syncCapture is noise of the given length with ref embedded at start,
// quantized to float32 the way a cf32 capture arrives.
func syncCapture(rng *rand.Rand, n, start int, ref []complex128, noise float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64()*noise, rng.NormFloat64()*noise)
	}
	for i, v := range ref {
		x[start+i] += v
	}
	for i, v := range x {
		x[i] = complex(float64(float32(real(v))), float64(float32(imag(v))))
	}
	return x
}

// TestFirstCrossingAnchorFree pins that a sync decision is data-local: cut
// the capture at any k before the frame, and the search on x[k:] returns
// the same start shifted by k and the same peak bits, equal to ExactAt on
// the frame's own window. A stream scanner cuts its window wherever its
// chunks fall, so this is what makes its sync peaks match batch.
func TestFirstCrossingAnchorFree(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const refLen, start = 300, 5000
	ref := make([]complex128, refLen)
	for i := range ref {
		ref[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, noise := range []float64{1e-3, 0.05, 0.3} {
		x := syncCapture(rng, 9000, start, ref, noise)
		for name, c := range syncCorrelators(t, ref) {
			lag0, peak0, found := c.FirstCrossing(x, 0.5)
			if !found || lag0 < start-2 || lag0 > start+2 {
				t.Fatalf("%s noise %v: FirstCrossing = (%d, %v, %v), want a frame near %d",
					name, noise, lag0, peak0, found, start)
			}
			if want := c.ExactAt(x[lag0:lag0+refLen], 0); peak0 != want {
				t.Errorf("%s noise %v: peak %v, ExactAt on the window alone %v", name, noise, peak0, want)
			}
			for _, k := range []int{1, 2, 3, 17, 255, 256, 1000, 1777, 2048, 3001, 4095, 4700, lag0 - 1, lag0} {
				lag, peak, found := c.FirstCrossing(x[k:], 0.5)
				if !found || lag != lag0-k || math.Float64bits(peak) != math.Float64bits(peak0) {
					t.Errorf("%s noise %v cut %d: (%d, %v, %v), want (%d, %v, true)",
						name, noise, k, lag, peak, found, lag0-k, peak0)
				}
			}
		}
	}
}

// TestFirstCrossingGuardedArgmax covers the refinement on a near-tie: the
// reference is periodic and the capture repeats its period past the
// frame, so lags start, start+P, ... see bit-identical windows and tie
// exactly, while their FFT screen values differ by rounding. The search
// must return the earliest of them on both paths, at any cut.
func TestFirstCrossingGuardedArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const period, repeats, start = 24, 8, 3000
	base := make([]complex128, period)
	for i := range base {
		base[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var ref, run []complex128
	for r := 0; r < repeats; r++ {
		if r < repeats/2 {
			ref = append(ref, base...)
		}
		run = append(run, base...)
	}
	for trial := 0; trial < 6; trial++ {
		x := syncCapture(rng, 6000, start, run, 0.02)
		copy(x[start:], run) // noise-free run: the tied windows are bit-identical
		for name, c := range syncCorrelators(t, ref) {
			for _, k := range []int{0, 1, 1000, 2999} {
				lag, peak, found := c.FirstCrossing(x[k:], 0.5)
				if !found || lag != start-k {
					t.Errorf("trial %d %s cut %d: FirstCrossing = (%d, %v, %v), want the earliest tied lag %d",
						trial, name, k, lag, peak, found, start-k)
					continue
				}
				for j := 1; j < repeats-repeats/2; j++ {
					if tied := c.ExactAt(x, start+j*period); tied != peak {
						t.Fatalf("trial %d: lag %d reads %v, not tied with %v", trial, start+j*period, tied, peak)
					}
				}
			}
		}
	}
}

// TestFirstCrossingNotFound pins the no-crossing result: the exact value
// at the screen maximum, and 0 on NaN input.
func TestFirstCrossingNotFound(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	ref := randComplexSlice(rng, 64)
	x := randComplexSlice(rng, 2000)
	for name, c := range syncCorrelators(t, ref) {
		_, first, found := c.FirstCrossing(x, 0.9)
		if found || !(first > 0 && first < 0.9) {
			t.Errorf("%s: FirstCrossing on noise = (%v, %v), want a sub-threshold peak", name, first, found)
		}
		nan := make([]complex128, len(x))
		for i := range nan {
			nan[i] = complex(math.NaN(), 0)
		}
		if lag, peak, found := c.FirstCrossing(nan, 0.5); found || lag != 0 || peak != 0 {
			t.Errorf("%s: FirstCrossing on NaN = (%d, %v, %v), want (0, 0, false)", name, lag, peak, found)
		}
		assertPanics(t, name+" undersized", func() { c.FirstCrossing(x[:10], 0.5) })
	}
}

// TestSyncSearchZeroAllocs pins that the search, resumed or not, reuses
// the correlator's lag scratch once it has grown.
func TestSyncSearchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	ref := randComplexSlice(rng, 128)
	x := syncCapture(rng, 4000, 2500, ref, 0.05)
	c := newFFTCorrelator(t, ref)
	c.FirstCrossing(x, 0.5)
	allocs := testing.AllocsPerRun(20, func() {
		c.FirstCrossing(x, 0.5)
		c.FirstCrossing(x[:2000], 0.5)
		c.Resume(0)
		c.FirstCrossing(x[:3000], 0.5)
		c.Resume(1000)
		c.FirstCrossing(x[1000:], 0.5)
	})
	if allocs != 0 {
		t.Errorf("sync search allocates %v times per run, want 0", allocs)
	}
}

// nonFiniteValue is a sample the screen must read as zero: kind picks
// NaN, ±Inf or a finite magnitude ≥ 1.5e154 (whose |x|² overflows, mag
// choosing how much larger), in the real or the imaginary part.
func nonFiniteValue(kind uint8, mag float64) complex128 {
	var v float64
	switch kind % 4 {
	case 0:
		v = math.NaN()
	case 1:
		v = math.Inf(1)
	case 2:
		v = math.Inf(-1)
	default:
		v = math.Copysign(math.Max(math.Abs(mag), 1.5e154), mag)
	}
	if kind&4 != 0 {
		return complex(0, v)
	}
	return complex(v, 0)
}

// assertSyncParity requires the FFT path's FirstCrossing on x to return
// the direct path's lag, peak bits and found flag.
func assertSyncParity(t *testing.T, cs map[string]*Correlator, x []complex128, threshold float64, what string) {
	t.Helper()
	type result struct {
		lag   int
		peak  uint64
		found bool
	}
	run := func(search func([]complex128, float64) (int, float64, bool)) result {
		lag, peak, found := search(x, threshold)
		return result{lag, math.Float64bits(peak), found}
	}
	if got, want := run(cs["fft"].FirstCrossing), run(cs["direct"].FirstCrossing); got != want {
		t.Errorf("%s: FirstCrossing fft %+v, direct %+v", what, got, want)
	}
}

// TestFirstCrossingNonFinite pins that one NaN, ±Inf or overflowing
// sample before a frame does not hide it from the FFT screen: the energy
// recurrence used to carry such a sample for good, so every later screen
// value read 0 and no lag reached ExactAt.
func TestFirstCrossingNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	const refLen, start = 300, 5000
	ref := randComplexSlice(rng, refLen)
	clean := syncCapture(rng, 9000, start, ref, 0.05)
	cs := syncCorrelators(t, ref)
	for _, bad := range []complex128{complex(math.NaN(), 0), complex(0, math.Inf(1)), complex(math.Inf(-1), 0), complex(1e200, 0)} {
		for _, gap := range []int{1, 100, 299, 300, 1000, 3000, 4999} {
			x := append([]complex128(nil), clean...)
			x[start-gap] = bad
			what := fmt.Sprintf("%v at %d before the frame", bad, gap)
			lag, _, found := cs["fft"].FirstCrossing(x, 0.5)
			if !found || lag < start-2 || lag > start+2 {
				t.Errorf("%s: FirstCrossing = (%d, %v), want a frame near %d", what, lag, found, start)
			}
			assertSyncParity(t, cs, x, 0.5, what)
		}
	}
}

// FuzzFirstCrossingNonFinite inserts NaN, ±Inf or overflowing samples at
// fuzzed positions of a fixed two-frame capture, inside frames too, and
// requires the FFT path's FirstCrossing to return the direct path's
// result bit for bit. The reference repeats its first 40 samples four
// times, like a preamble, so partial overlaps cross the threshold before
// the frame start and the refinement range holds lags whose window the
// inserted sample spoils.
func FuzzFirstCrossingNonFinite(f *testing.F) {
	rng := rand.New(rand.NewSource(96))
	base := randComplexSlice(rng, 40)
	ref := append(append(append(append(append([]complex128(nil), base...), base...), base...), base...), randComplexSlice(rng, 40)...)
	clean := syncCapture(rng, 3000, 900, ref, 0.05)
	for i, v := range ref {
		clean[2200+i] += v
	}
	cs := syncCorrelators(f, ref)
	f.Fuzz(func(t *testing.T, pos1, pos2 uint16, kind1, kind2 uint8, mag float64) {
		x := append([]complex128(nil), clean...)
		x[int(pos1)%len(x)] = nonFiniteValue(kind1, mag)
		x[int(pos2)%len(x)] = nonFiniteValue(kind2, -mag)
		assertSyncParity(t, cs, x, 0.5, fmt.Sprintf("samples at %d and %d", pos1, pos2))
	})
}
