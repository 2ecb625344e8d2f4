package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT computes the discrete Fourier transform
//
//	X[k] = Σ_{n} x[n]·e^{−j2πkn/N}
//
// of x, returning a new slice. The length must be a power of two (the
// transform is an in-place iterative radix-2); any other length panics.
func FFT(x []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x))
	FFTInto(out, x)
	return out
}

// IFFT computes the inverse DFT with 1/N normalization, so
// IFFT(FFT(x)) == x up to rounding. The length must be a power of two.
func IFFT(x []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x))
	IFFTInto(out, x)
	return out
}

// FFTInto computes the DFT of src into dst (len(dst) == len(src); dst and
// src may be the same slice) with zero allocations, the contract the
// worker-pool hot paths rely on. The length must be a power of two; any
// other length panics.
func FFTInto(dst, src []complex128) {
	transformInto(dst, src, false)
}

// IFFTInto is FFTInto for the inverse transform, including the 1/N
// normalization.
func IFFTInto(dst, src []complex128) {
	transformInto(dst, src, true)
}

func transformInto(dst, src []complex128, inverse bool) {
	n := len(src)
	if len(dst) != n {
		panic(fmt.Sprintf("dsp: transform into %d-sample buffer from %d samples", len(dst), n))
	}
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	radix2(dst, inverse)
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range dst {
			dst[i] *= inv
		}
	}
}

// radix2 runs a decimation-in-time FFT in place. inverse selects the twiddle
// sign; normalization is left to the caller.
func radix2(a []complex128, inverse bool) {
	n := len(a)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := uint(bits.LeadingZeros32(uint32(n)) + 1)
	for i := 1; i < n; i++ {
		j := int(bits.Reverse32(uint32(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

// BinFrequency returns the signed frequency in Hz of FFT bin k for an
// n-point transform at the given sample rate. Bins above n/2 map to
// negative frequencies.
func BinFrequency(k, n int, sampleRate float64) (float64, error) {
	if k < 0 || k >= n {
		return 0, fmt.Errorf("dsp: bin %d out of range for %d-point FFT", k, n)
	}
	if k <= n/2 {
		return float64(k) * sampleRate / float64(n), nil
	}
	return float64(k-n) * sampleRate / float64(n), nil
}
