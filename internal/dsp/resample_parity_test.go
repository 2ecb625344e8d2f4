package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// refFilterSame is the direct same-length convolution whose outputs
// FIR.sameAt computes one at a time: for each output, the taps against the
// inputs in ascending index order, zero inputs skipped.
func refFilterSame(f *FIR, x []complex128) []complex128 {
	out := make([]complex128, len(x))
	d := f.GroupDelay()
	for i := range out {
		var acc complex128
		lo := i + d - (len(f.taps) - 1)
		if lo < 0 {
			lo = 0
		}
		hi := i + d
		if hi > len(x)-1 {
			hi = len(x) - 1
		}
		for k := lo; k <= hi; k++ {
			v := x[k]
			if v == 0 {
				continue
			}
			acc += v * complex(f.taps[i+d-k], 0)
		}
		out[i] = acc
	}
	return out
}

// refInterpolate is the textbook interpolator the polyphase form replaces:
// zero-stuff with gain compensation, then filter the full-rate stream.
func refInterpolate(ip *Interpolator, x []complex128) []complex128 {
	stuffed := make([]complex128, len(x)*ip.factor)
	gain := complex(float64(ip.factor), 0)
	for i, v := range x {
		stuffed[i*ip.factor] = v * gain
	}
	return refFilterSame(ip.lp, stuffed)
}

// refDecimate filters at the full rate, then keeps every factor-th sample.
func refDecimate(d *Decimator, x []complex128) []complex128 {
	filtered := refFilterSame(d.lp, x)
	var out []complex128
	for i := 0; i < len(filtered); i += d.factor {
		out = append(out, filtered[i])
	}
	return out
}

func sameBits(a, b []complex128) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d, want %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return fmt.Errorf("sample %d = %v, want %v", i, a[i], b[i])
		}
	}
	return nil
}

// parityInputs are the signals the resampler parity tests run: lengths from
// one sample to well past the filter span, with exact zeros, signed zeros
// and infinities mixed into otherwise random samples.
func parityInputs() map[string][]complex128 {
	rng := rand.New(rand.NewSource(41))
	random := func(n int) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return x
	}
	negZero := math.Copysign(0, -1)
	special := random(60)
	special[3] = 0
	special[4] = complex(negZero, negZero)
	special[5] = complex(negZero, 0.5)
	special[9] = complex(0, negZero)
	special[20] = complex(math.Inf(1), 0)
	special[41] = complex(-1, math.Inf(-1))
	zeros := make([]complex128, 25)
	zeros[7] = complex(negZero, 0)
	return map[string][]complex128{
		"len1":    random(1),
		"len2":    random(2),
		"len7":    random(7),
		"len30":   random(30),
		"len257":  random(257),
		"special": special,
		"zeros":   zeros,
		"inf1":    {cmplx.Inf()},
	}
}

func TestInterpolatorMatchesZeroStuffOracle(t *testing.T) {
	inputs := parityInputs()
	for _, factor := range []int{2, 3, 5, 7} {
		for _, tapsPerPhase := range []int{2, 8, 16} {
			ip, err := NewInterpolator(factor, tapsPerPhase)
			if err != nil {
				t.Fatal(err)
			}
			for name, x := range inputs {
				want := refInterpolate(ip, x)
				if err := sameBits(ip.Process(x), want); err != nil {
					t.Errorf("factor %d/%d taps, %s: Process: %v", factor, tapsPerPhase, name, err)
				}
				// ProcessInto reuses its scratch across the differently
				// sized inputs of this loop.
				dst := make([]complex128, len(x)*factor)
				ip.ProcessInto(dst, x)
				if err := sameBits(dst, want); err != nil {
					t.Errorf("factor %d/%d taps, %s: ProcessInto: %v", factor, tapsPerPhase, name, err)
				}
			}
		}
	}
}

func TestDecimatorMatchesFilterThenStrideOracle(t *testing.T) {
	inputs := parityInputs()
	for _, factor := range []int{2, 3, 5, 7} {
		d, err := NewDecimator(factor)
		if err != nil {
			t.Fatal(err)
		}
		for name, x := range inputs {
			if err := sameBits(d.Process(x), refDecimate(d, x)); err != nil {
				t.Errorf("factor %d, %s: %v", factor, name, err)
			}
		}
	}
}

func TestSameAtMatchesDirectOracle(t *testing.T) {
	f, err := DesignLowPass(0.1, 41, Blackman)
	if err != nil {
		t.Fatal(err)
	}
	for name, x := range parityInputs() {
		got := make([]complex128, len(x))
		for i := range got {
			got[i] = f.sameAt(x, i)
		}
		if err := sameBits(got, refFilterSame(f, x)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
