package dsp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// newFFTCorrelator builds a correlator on the FFT overlap-save path.
func newFFTCorrelator(t *testing.T, ref []complex128) *Correlator {
	t.Helper()
	c, err := NewCorrelator(ref, CorrelatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fullScan runs the correlator's scan over every lag of x into dst, which
// must have length Lags(len(x)) ≥ 1: exact values on the direct path,
// screen values on the FFT path. It returns dst.
func fullScan(c *Correlator, dst []float64, x []complex128) []float64 {
	s := scan{c: c, x: x, dst: dst}
	s.computeThrough(len(dst) - 1)
	return dst
}

// correlate runs a full scan into a fresh buffer; nil when x is shorter
// than the reference.
func correlate(c *Correlator, x []complex128) []float64 {
	lags := c.Lags(len(x))
	if lags < 1 {
		return nil
	}
	return fullScan(c, make([]float64, lags), x)
}

func TestCorrelatorMatchesDirectValues(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ sigLen, refLen int }{
		{64, 5}, {100, 32}, {638, 638}, {1000, 638}, {4096, 638}, {5000, 100},
	} {
		x := randComplexSlice(rng, tc.sigLen)
		ref := randComplexSlice(rng, tc.refLen)
		c := newFFTCorrelator(t, ref)
		got := correlate(c, x)
		want := NormalizedCrossCorrelate(x, ref)
		if len(got) != len(want) {
			t.Fatalf("sig=%d ref=%d: %d lags, want %d", tc.sigLen, tc.refLen, len(got), len(want))
		}
		for l := range want {
			if math.Abs(got[l]-want[l]) > 1e-9 {
				t.Errorf("sig=%d ref=%d lag %d: fft %v, direct %v", tc.sigLen, tc.refLen, l, got[l], want[l])
			}
		}
	}
}

func TestCorrelatorExactAtBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tc := range []struct{ sigLen, refLen int }{
		{80, 7}, {500, 64}, {2000, 638},
	} {
		x := randComplexSlice(rng, tc.sigLen)
		ref := randComplexSlice(rng, tc.refLen)
		c := newFFTCorrelator(t, ref)
		want := NormalizedCrossCorrelate(x, ref)
		for l := range want {
			if got := c.ExactAt(x, l); got != want[l] {
				t.Fatalf("sig=%d ref=%d lag %d: ExactAt %v != direct %v (must be bitwise equal)",
					tc.sigLen, tc.refLen, l, got, want[l])
			}
		}
	}
}

// TestCorrelatorPeakAgreementFuzz is the fuzz-style property test: over
// random signal lengths, reference lengths, embed offsets, amplitudes,
// and noise levels, the FFT and direct paths must agree on the peak lag.
func TestCorrelatorPeakAgreementFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		refLen := 4 + rng.Intn(700)
		sigLen := refLen + rng.Intn(4000)
		ref := randComplexSlice(rng, refLen)
		x := make([]complex128, sigLen)
		noise := math.Pow(10, -1-2*rng.Float64()) // 1e-1 .. 1e-3
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(noise, 0)
		}
		offset := rng.Intn(sigLen - refLen + 1)
		amp := complex(0.5+rng.Float64(), 0)
		for i, v := range ref {
			x[offset+i] += v * amp
		}
		c := newFFTCorrelator(t, ref)
		gotPeak := PeakIndex(correlate(c, x))
		wantPeak := PeakIndex(NormalizedCrossCorrelate(x, ref))
		if gotPeak != wantPeak {
			t.Fatalf("trial %d (sig=%d ref=%d offset=%d): fft peak %d, direct peak %d",
				trial, sigLen, refLen, offset, gotPeak, wantPeak)
		}
		if gotPeak != offset {
			t.Fatalf("trial %d: peak %d, embedded at %d", trial, gotPeak, offset)
		}
	}
}

func TestCorrelatorIntoZeroAllocs(t *testing.T) {
	x := randSignal(4000, 31)
	ref := randSignal(638, 32)
	c := newFFTCorrelator(t, ref)
	dst := make([]float64, c.Lags(len(x)))
	if n := testing.AllocsPerRun(20, func() { fullScan(c, dst, x) }); n != 0 {
		t.Fatalf("full scan allocated %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { c.ExactAt(x, 1234) }); n != 0 {
		t.Fatalf("ExactAt allocated %v per run, want 0", n)
	}
}

func TestCorrelatorClone(t *testing.T) {
	x := randSignal(3000, 33)
	ref := randSignal(200, 34)
	c := newFFTCorrelator(t, ref)
	want := correlate(c, x)

	// Clones must produce identical output and be independently usable
	// from concurrent goroutines (shared spectrum, private scratch).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := c.Clone()
			for iter := 0; iter < 5; iter++ {
				got := correlate(cl, x)
				for l := range want {
					if got[l] != want[l] {
						t.Errorf("clone lag %d: %v != %v", l, got[l], want[l])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestCorrelatorConfigValidation(t *testing.T) {
	if _, err := NewCorrelator(nil, CorrelatorConfig{}); err == nil {
		t.Error("accepted empty reference")
	}
	if _, err := NewCorrelator(nil, CorrelatorConfig{UseDirect: true}); err == nil {
		t.Error("accepted empty reference on the direct path")
	}
}

func TestCorrelatorDegenerate(t *testing.T) {
	ref := randSignal(16, 36)
	c := newFFTCorrelator(t, ref)
	if got := correlate(c, randSignal(8, 37)); got != nil {
		t.Error("signal shorter than reference should give nil")
	}
	assertPanics(t, "ExactAt out of range", func() {
		c.ExactAt(randSignal(32, 40), 30)
	})

	// Zero-energy reference: all-zero output on every path.
	zc, err := NewCorrelator(make([]complex128, 8), CorrelatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range correlate(zc, randSignal(64, 41)) {
		if v != 0 {
			t.Fatal("zero-energy reference should yield zeros")
		}
	}
	if zc.ExactAt(randSignal(64, 42), 3) != 0 {
		t.Error("zero-energy reference ExactAt should be 0")
	}
}

// TestCorrelatorZeroEnergyWindows pins the defined-output contract for
// zero-energy signal windows: lags whose window has no energy read 0 on
// both paths (the direct path once left such slots stale).
func TestCorrelatorZeroEnergyWindows(t *testing.T) {
	ref := randSignal(8, 43)
	x := make([]complex128, 64)
	copy(x[40:], randSignal(16, 44)) // first 40 samples silent
	c := newFFTCorrelator(t, ref)
	got := correlate(c, x)
	dirty := make([]float64, len(got))
	for i := range dirty {
		dirty[i] = 999 // stale garbage the Into call must overwrite
	}
	NormalizedCrossCorrelateInto(dirty, x, ref)
	for l := 0; l < 40-len(ref)+1; l++ {
		if got[l] != 0 {
			t.Errorf("fft lag %d over silence = %v, want 0", l, got[l])
		}
		if dirty[l] != 0 {
			t.Errorf("direct lag %d over silence = %v, want 0 (stale slot)", l, dirty[l])
		}
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestCorrelationScanPrefixBitwise pins the scan contract: any prefix
// computed lazily is bitwise identical to the same prefix of a full scan,
// on both the FFT and direct paths, regardless of how the prefix is
// reached (single jump or lag-at-a-time).
func TestCorrelationScanPrefixBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, tc := range []struct{ sigLen, refLen int }{
		{64, 5}, {100, 32}, {638, 638}, {1000, 638}, {4096, 638}, {5000, 100},
	} {
		x := randComplexSlice(rng, tc.sigLen)
		ref := randComplexSlice(rng, tc.refLen)
		for _, direct := range []bool{false, true} {
			c, err := NewCorrelator(ref, CorrelatorConfig{UseDirect: direct})
			if err != nil {
				t.Fatal(err)
			}
			lags := tc.sigLen - tc.refLen + 1
			if c.Lags(len(x)) != lags {
				t.Fatalf("Lags = %d, want %d", c.Lags(len(x)), lags)
			}
			want := fullScan(c, make([]float64, lags), x)

			// One jump straight to a mid-point, then to the end.
			s := scan{c: c, x: x, dst: make([]float64, lags)}
			mid := lags / 2
			s.computeThrough(mid)
			if s.done < mid+1 {
				t.Fatalf("done = %d after computeThrough(%d)", s.done, mid)
			}
			for l := 0; l <= mid; l++ {
				if s.dst[l] != want[l] {
					t.Fatalf("sig=%d ref=%d direct=%v lag %d: scan %v != full %v",
						tc.sigLen, tc.refLen, direct, l, s.dst[l], want[l])
				}
			}
			s.computeThrough(lags - 1)
			for l := range want {
				if s.dst[l] != want[l] {
					t.Fatalf("sig=%d ref=%d direct=%v lag %d (after the jump): scan %v != full %v",
						tc.sigLen, tc.refLen, direct, l, s.dst[l], want[l])
				}
			}

			// Lag at a time, interleaved with redundant backward requests.
			s = scan{c: c, x: x, dst: make([]float64, lags)}
			for l := 0; l < lags; l++ {
				s.computeThrough(l)
				s.computeThrough(l / 2) // no-op: already done
				if s.dst[l] != want[l] {
					t.Fatalf("sig=%d ref=%d direct=%v lag %d (incremental): scan %v != full %v",
						tc.sigLen, tc.refLen, direct, l, s.dst[l], want[l])
				}
			}
		}
	}
}

// TestCorrelationScanZeroEnergyRef pins that a zero-energy reference zeroes
// every lag at the first request.
func TestCorrelationScanZeroEnergyRef(t *testing.T) {
	zc, err := NewCorrelator(make([]complex128, 8), CorrelatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	x := randSignal(64, 45)
	got := make([]float64, len(x)-8+1)
	for i := range got {
		got[i] = 999
	}
	s := scan{c: zc, x: x, dst: got}
	s.computeThrough(0)
	if s.done != len(got) {
		t.Fatalf("zero-energy scan done = %d, want all %d", s.done, len(got))
	}
	for l, v := range got {
		if v != 0 {
			t.Errorf("lag %d = %v, want 0", l, v)
		}
	}
}

func TestCorrelationScanZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ref := randComplexSlice(rng, 64)
	x := randComplexSlice(rng, 2048)
	c := newFFTCorrelator(t, ref)
	dst := make([]float64, len(x)-len(ref)+1)
	fullScan(c, dst, x) // warm the correlator's block scratch
	if allocs := testing.AllocsPerRun(20, func() { fullScan(c, dst, x) }); allocs != 0 {
		t.Errorf("scan allocates %v times per run, want 0", allocs)
	}
}
