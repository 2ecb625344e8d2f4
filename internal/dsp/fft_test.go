package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randComplexSlice(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDeviation(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTKnownValues(t *testing.T) {
	tests := []struct {
		name string
		in   []complex128
		want []complex128
	}{
		{
			name: "impulse",
			in:   []complex128{1, 0, 0, 0},
			want: []complex128{1, 1, 1, 1},
		},
		{
			name: "dc",
			in:   []complex128{1, 1, 1, 1},
			want: []complex128{4, 0, 0, 0},
		},
		{
			name: "alternating",
			in:   []complex128{1, -1, 1, -1},
			want: []complex128{0, 0, 4, 0},
		},
		{
			name: "single_tone_bin1",
			// x[n] = e^{+j2πn/4} concentrates in bin 1 under the
			// engineering-convention forward transform.
			in: []complex128{
				1,
				cmplx.Rect(1, 2*math.Pi/4),
				cmplx.Rect(1, 2*math.Pi*2/4),
				cmplx.Rect(1, 2*math.Pi*3/4),
			},
			want: []complex128{0, 4, 0, 0},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := FFT(tt.in)
			if d := maxDeviation(got, tt.want); d > 1e-12 {
				t.Errorf("FFT deviation %g: got %v want %v", d, got, tt.want)
			}
		})
	}
}

func TestFFTRoundTripPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024} {
		x := randComplexSlice(rng, n)
		back := IFFT(FFT(x))
		if d := maxDeviation(back, x); d > 1e-9 {
			t.Errorf("n=%d round-trip deviation %g", n, d)
		}
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	for _, n := range []int{3, 100} {
		x := make([]complex128, n)
		for name, f := range map[string]func(){
			"FFTInto":  func() { FFTInto(x, x) },
			"IFFTInto": func() { IFFTInto(x, x) },
			"FFT":      func() { FFT(x) },
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if want := fmt.Sprintf("length %d is not a power of two", n); !strings.Contains(msg, want) {
						t.Errorf("%s(n=%d) panic %q, want one containing %q", name, n, msg, want)
					}
				}()
				f()
			}()
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// Σ|x|² == Σ|X|²/N — the identity the paper's Eq. (2) rests on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := randComplexSlice(rng, n)
		spec := FFT(x)
		timeE := Energy(x)
		freqE := Energy(spec) / float64(n)
		return math.Abs(timeE-freqE) < 1e-9*math.Max(1, timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		x := randComplexSlice(rng, n)
		y := randComplexSlice(rng, n)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		lhsIn := make([]complex128, n)
		for i := range lhsIn {
			lhsIn[i] = a*x[i] + y[i]
		}
		lhs := FFT(lhsIn)
		fx, fy := FFT(x), FFT(y)
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(a*fx[i]+fy[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTEmpty(t *testing.T) {
	if got := FFT(nil); got != nil {
		t.Errorf("FFT(nil) = %v, want nil", got)
	}
	if got := IFFT(nil); got != nil {
		t.Errorf("IFFT(nil) = %v, want nil", got)
	}
}

func TestBinFrequency(t *testing.T) {
	fs := 20e6
	tests := []struct {
		k    int
		want float64
	}{
		{k: 0, want: 0},
		{k: 1, want: 0.3125e6},
		{k: 32, want: 10e6},
		{k: 63, want: -0.3125e6},
		{k: 61, want: -0.9375e6},
	}
	for _, tt := range tests {
		got, err := BinFrequency(tt.k, 64, fs)
		if err != nil {
			t.Fatalf("bin %d: %v", tt.k, err)
		}
		if math.Abs(got-tt.want) > 1 {
			t.Errorf("BinFrequency(%d) = %g, want %g", tt.k, got, tt.want)
		}
	}
	if _, err := BinFrequency(64, 64, fs); err == nil {
		t.Error("BinFrequency accepted out-of-range bin")
	}
	if _, err := BinFrequency(-1, 64, fs); err == nil {
		t.Error("BinFrequency accepted negative bin")
	}
}
