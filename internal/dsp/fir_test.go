package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestDesignLowPassValidation(t *testing.T) {
	if _, err := DesignLowPass(0, 31, nil); err == nil {
		t.Error("accepted zero cutoff")
	}
	if _, err := DesignLowPass(0.5, 31, nil); err == nil {
		t.Error("accepted Nyquist cutoff")
	}
	if _, err := DesignLowPass(0.25, 2, nil); err == nil {
		t.Error("accepted 2 taps")
	}
}

// response evaluates H(e^{j2πf}) at normalized frequency f (cycles per
// sample).
func response(f *FIR, freq float64) complex128 {
	var h complex128
	for n, t := range f.taps {
		h += complex(t, 0) * cmplx.Rect(1, -2*math.Pi*freq*float64(n))
	}
	return h
}

func TestDesignLowPassResponse(t *testing.T) {
	lp, err := DesignLowPass(0.1, 81, Blackman)
	if err != nil {
		t.Fatal(err)
	}
	// Unit DC gain.
	if g := cmplx.Abs(response(lp, 0)); math.Abs(g-1) > 1e-9 {
		t.Errorf("DC gain = %g, want 1", g)
	}
	// Passband ripple small.
	for _, f := range []float64{0.01, 0.03, 0.05, 0.07} {
		if g := cmplx.Abs(response(lp, f)); math.Abs(g-1) > 0.01 {
			t.Errorf("passband gain at %g = %g", f, g)
		}
	}
	// Stopband attenuation well past the transition band.
	for _, f := range []float64{0.2, 0.3, 0.45} {
		if g := cmplx.Abs(response(lp, f)); g > 1e-3 {
			t.Errorf("stopband gain at %g = %g", f, g)
		}
	}
	// −6 dB point near the design cutoff.
	if g := cmplx.Abs(response(lp, 0.1)); math.Abs(g-0.5) > 0.05 {
		t.Errorf("cutoff gain = %g, want ≈ 0.5", g)
	}
}

func TestDesignLowPassForcesOddTaps(t *testing.T) {
	lp, err := DesignLowPass(0.2, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(lp.taps); n%2 == 0 {
		t.Errorf("tap count %d is even", n)
	}
}

func TestGroupDelayAlignment(t *testing.T) {
	lp, err := DesignLowPass(0.2, 41, Hann)
	if err != nil {
		t.Fatal(err)
	}
	if gd := lp.GroupDelay(); gd != 20 {
		t.Errorf("GroupDelay = %d, want 20", gd)
	}
	// A slow complex tone inside the passband should come out aligned.
	n := 400
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*0.05*float64(i))
	}
	for i := 50; i < n-50; i++ {
		if y := lp.sameAt(x, i); cmplx.Abs(y-x[i]) > 0.02 {
			t.Fatalf("sample %d misaligned: |err| = %g", i, cmplx.Abs(y-x[i]))
		}
	}
}

func TestWindowsSymmetricAndBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   WindowFunc
	}{
		{name: "hann", fn: Hann},
		{name: "blackman", fn: Blackman},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{1, 2, 9, 64} {
				w := tc.fn(n)
				if len(w) != n {
					t.Fatalf("length = %d, want %d", len(w), n)
				}
				for i := range w {
					if w[i] < -1e-12 || w[i] > 1+1e-12 {
						t.Errorf("n=%d w[%d]=%g out of [0,1]", n, i, w[i])
					}
					if math.Abs(w[i]-w[n-1-i]) > 1e-12 {
						t.Errorf("n=%d asymmetric at %d", n, i)
					}
				}
			}
		})
	}
}

func TestHannEndpointsNearZero(t *testing.T) {
	w := Hann(65)
	if w[0] > 1e-12 || w[64] > 1e-12 {
		t.Errorf("Hann endpoints = %g, %g; want 0", w[0], w[64])
	}
	mid := w[32]
	if math.Abs(mid-1) > 1e-12 {
		t.Errorf("Hann midpoint = %g, want 1", mid)
	}
}
