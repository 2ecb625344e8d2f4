package dsp

import (
	"math/rand"
	"testing"
)

func benchSignal(n int) []complex128 {
	rng := rand.New(rand.NewSource(1))
	return randComplexSlice(rng, n)
}

func BenchmarkFFT64(b *testing.B) {
	x := benchSignal(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := benchSignal(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkInterpolate5x(b *testing.B) {
	x := benchSignal(1410)
	ip, err := NewInterpolator(5, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip.Process(x)
	}
}

func BenchmarkDecimate5x(b *testing.B) {
	x := benchSignal(7050)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decimate(x, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNormalizedCrossCorrelate(b *testing.B) {
	x := benchSignal(4000)
	ref := benchSignal(640)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NormalizedCrossCorrelate(x, ref)
	}
}

// benchCorrelator times a full scan of every lag at the ZigBee-sync shape (a ~638-
// sample SHR reference against a frame-sized capture) on either path.
func benchCorrelator(b *testing.B, direct bool) {
	b.Helper()
	x := benchSignal(7000)
	ref := benchSignal(638)
	c, err := NewCorrelator(ref, CorrelatorConfig{UseDirect: direct})
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, c.Lags(len(x)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fullScan(c, dst, x)
	}
}

func BenchmarkCorrelatorFFT(b *testing.B)    { benchCorrelator(b, false) }
func BenchmarkCorrelatorDirect(b *testing.B) { benchCorrelator(b, true) }
