package dsp

import (
	"math/rand"
	"testing"
)

// randSignal fills a deterministic pseudo-random complex test vector.
func randSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// The worker-pool hot paths rely on the Into variants allocating nothing.
// These tests pin that contract so buffer-reuse wins can't silently regress.

func TestFFTIntoZeroAllocs(t *testing.T) {
	src := randSignal(64, 1)
	dst := make([]complex128, len(src))
	if n := testing.AllocsPerRun(100, func() { FFTInto(dst, src) }); n != 0 {
		t.Fatalf("FFTInto allocated %v per run, want 0", n)
	}
}

func TestIFFTIntoZeroAllocs(t *testing.T) {
	src := randSignal(128, 2)
	dst := make([]complex128, len(src))
	if n := testing.AllocsPerRun(100, func() { IFFTInto(dst, src) }); n != 0 {
		t.Fatalf("IFFTInto allocated %v per run, want 0", n)
	}
}

func TestFFTIntoInPlaceZeroAllocs(t *testing.T) {
	buf := randSignal(256, 3)
	if n := testing.AllocsPerRun(100, func() { FFTInto(buf, buf) }); n != 0 {
		t.Fatalf("in-place FFTInto allocated %v per run, want 0", n)
	}
}

func TestProcessIntoZeroAllocs(t *testing.T) {
	ip, err := NewInterpolator(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := randSignal(128, 6)
	dst := make([]complex128, len(src)*ip.Factor())
	ip.ProcessInto(dst, src) // warm the internal stuffing scratch
	if n := testing.AllocsPerRun(20, func() { ip.ProcessInto(dst, src) }); n != 0 {
		t.Fatalf("ProcessInto allocated %v per run, want 0", n)
	}
}

func TestNormalizedCrossCorrelateIntoZeroAllocs(t *testing.T) {
	x := randSignal(600, 7)
	ref := randSignal(64, 8)
	dst := make([]float64, len(x)-len(ref)+1)
	if n := testing.AllocsPerRun(20, func() { NormalizedCrossCorrelateInto(dst, x, ref) }); n != 0 {
		t.Fatalf("NormalizedCrossCorrelateInto allocated %v per run, want 0", n)
	}
}

// The Into variants must agree with their allocating counterparts.

func TestIntoVariantsMatchAllocating(t *testing.T) {
	for _, n := range []int{16, 128} {
		src := randSignal(n, int64(n))
		dst := make([]complex128, n)
		FFTInto(dst, src)
		for i, want := range FFT(src) {
			if dst[i] != want {
				t.Fatalf("n=%d: FFTInto[%d] = %v, want %v", n, i, dst[i], want)
			}
		}
		IFFTInto(dst, src)
		for i, want := range IFFT(src) {
			if dst[i] != want {
				t.Fatalf("n=%d: IFFTInto[%d] = %v, want %v", n, i, dst[i], want)
			}
		}
	}

	x := randSignal(200, 9)
	ip, err := NewInterpolator(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	up := ip.Process(x)
	upDst := make([]complex128, len(x)*5)
	ip.ProcessInto(upDst, x)
	for i := range up {
		if upDst[i] != up[i] {
			t.Fatalf("ProcessInto[%d] = %v, want %v", i, upDst[i], up[i])
		}
	}

	ref := randSignal(32, 10)
	corr := NormalizedCrossCorrelate(x, ref)
	corrDst := make([]float64, len(corr))
	NormalizedCrossCorrelateInto(corrDst, x, ref)
	for i := range corr {
		if corrDst[i] != corr[i] {
			t.Fatalf("NormalizedCrossCorrelateInto[%d] = %v, want %v", i, corrDst[i], corr[i])
		}
	}

	d, err := NewDecimator(5)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decimate(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Process(x)
	if len(got) != len(dec) {
		t.Fatalf("Decimator length %d, want %d", len(got), len(dec))
	}
	for i := range dec {
		if got[i] != dec[i] {
			t.Fatalf("Decimator[%d] = %v, want %v", i, got[i], dec[i])
		}
	}
}
