package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// syncCorrelators returns an FFT-path and a direct-path correlator.
func syncCorrelators(t *testing.T, ref []complex128) map[string]*Correlator {
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
			best, bestPeak, found := c.BestCrossing(x, 0.5)
			if !found || best != lag0 || bestPeak != peak0 {
				t.Errorf("%s noise %v: BestCrossing = (%d, %v, %v), want (%d, %v, true)",
					name, noise, best, bestPeak, found, lag0, peak0)
			}
		}
	}
}

// TestFirstCrossingGuardedArgmax covers the refinement on a near-tie: the
// reference is periodic and the capture repeats its period past the
// frame, so lags start, start+P, ... see bit-identical windows and tie
// exactly, while their FFT screen values differ by rounding. Both
// searches must return the earliest of them on both paths, at any cut.
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
			if best, _, found := c.BestCrossing(x, 0.5); !found || best != start {
				t.Errorf("trial %d %s: BestCrossing = %d (found %v), want the earliest tied lag %d",
					trial, name, best, found, start)
			}
		}
	}
}

// TestFirstCrossingNotFound pins the no-crossing result: the exact value
// at the screen maximum, shared by both searches, and 0 on NaN input.
func TestFirstCrossingNotFound(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	ref := randComplexSlice(rng, 64)
	x := randComplexSlice(rng, 2000)
	for name, c := range syncCorrelators(t, ref) {
		_, first, found := c.FirstCrossing(x, 0.9)
		if found || !(first > 0 && first < 0.9) {
			t.Errorf("%s: FirstCrossing on noise = (%v, %v), want a sub-threshold peak", name, first, found)
		}
		if _, best, found := c.BestCrossing(x, 0.9); found || best != first {
			t.Errorf("%s: BestCrossing on noise = (%v, %v), want (%v, false)", name, best, found, first)
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

// TestSyncSearchZeroAllocs pins that both searches reuse the correlator's
// lag scratch once it has grown.
func TestSyncSearchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	ref := randComplexSlice(rng, 128)
	x := syncCapture(rng, 4000, 2500, ref, 0.05)
	c := newFFTCorrelator(t, ref)
	c.FirstCrossing(x, 0.5)
	allocs := testing.AllocsPerRun(20, func() {
		c.FirstCrossing(x, 0.5)
		c.FirstCrossing(x[:2000], 0.5)
		c.BestCrossing(x, 0.5)
	})
	if allocs != 0 {
		t.Errorf("sync searches allocate %v times per run, want 0", allocs)
	}
}
