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
// of x, returning a new slice. Power-of-two lengths use an in-place
// iterative radix-2 algorithm; every other length is handled by Bluestein's
// chirp-z transform so callers never need to pad.
func FFT(x []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x))
	FFTInto(out, x)
	return out
}

// IFFT computes the inverse DFT with 1/N normalization, so
// IFFT(FFT(x)) == x up to rounding.
func IFFT(x []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x))
	IFFTInto(out, x)
	return out
}

// FFTInto computes the DFT of src into dst (len(dst) == len(src); dst and
// src may be the same slice). Power-of-two lengths run fully in place with
// zero allocations — the contract the worker-pool hot paths rely on.
// Other lengths fall back to a transient Bluestein plan; callers that
// transform a fixed non-power-of-two length repeatedly should hold a Plan.
func FFTInto(dst, src []complex128) {
	transformInto(dst, src, false)
}

// IFFTInto is FFTInto for the inverse transform, including the 1/N
// normalization. Zero allocations for power-of-two lengths.
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
	if n&(n-1) == 0 {
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
		return
	}
	p := NewPlan(n)
	if inverse {
		p.Inverse(dst, src)
	} else {
		p.Forward(dst, src)
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

// Plan precomputes everything an arbitrary-length DFT needs — Bluestein
// chirps and the FFT of the convolution kernel for both directions — plus
// a scratch buffer, so repeated transforms of one length run without
// allocating. A Plan is NOT safe for concurrent use (the scratch buffer is
// shared between calls); give each worker goroutine its own.
type Plan struct {
	n    int
	pow2 bool
	// Bluestein state (nil when pow2): chirp c[k] = e^{−jπk²/n}, the
	// forward/inverse kernel spectra, and the m-point convolution scratch.
	m       int
	chirp   []complex128
	kernelF []complex128
	kernelI []complex128
	conv    []complex128
}

// NewPlan builds a transform plan for n-sample signals (n >= 1).
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("dsp: FFT plan for %d samples", n))
	}
	p := &Plan{n: n, pow2: n&(n-1) == 0}
	if p.pow2 {
		return p
	}
	// Chirp c[k] = e^{−jπk²/n}. Use k² mod 2n to avoid precision loss on
	// large k. The inverse chirp is the conjugate.
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		p.chirp[k] = cmplx.Rect(1, -math.Pi*float64(kk)/float64(n))
	}
	p.m = 1
	for p.m < 2*n-1 {
		p.m <<= 1
	}
	p.conv = make([]complex128, p.m)
	p.kernelF = bluesteinKernel(p.chirp, p.m, false)
	p.kernelI = bluesteinKernel(p.chirp, p.m, true)
	return p
}

// bluesteinKernel returns the FFT of the chirp-conjugate convolution
// kernel b[k] = conj(c[k]) (mirrored into the tail for circularity).
func bluesteinKernel(chirp []complex128, m int, inverse bool) []complex128 {
	n := len(chirp)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		c := chirp[k]
		if inverse {
			c = cmplx.Conj(c)
		}
		b[k] = cmplx.Conj(c)
		if k > 0 {
			b[m-k] = b[k]
		}
	}
	radix2(b, false)
	return b
}

// N returns the signal length the plan was built for.
func (p *Plan) N() int { return p.n }

// Forward computes the DFT of src into dst without allocating. dst and src
// must have length N(); they may alias.
func (p *Plan) Forward(dst, src []complex128) { p.transform(dst, src, false) }

// Inverse computes the normalized inverse DFT of src into dst without
// allocating. dst and src must have length N(); they may alias.
func (p *Plan) Inverse(dst, src []complex128) { p.transform(dst, src, true) }

func (p *Plan) transform(dst, src []complex128, inverse bool) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("dsp: plan for %d samples applied to %d -> %d", p.n, len(src), len(dst)))
	}
	if p.pow2 {
		if &dst[0] != &src[0] {
			copy(dst, src)
		}
		radix2(dst, inverse)
		if inverse {
			inv := complex(1/float64(p.n), 0)
			for i := range dst {
				dst[i] *= inv
			}
		}
		return
	}
	// Bluestein: X[k] = c[k] · (a ⊛ b)[k] with a[k] = x[k]·c[k]. The
	// inverse transform conjugates the chirp and divides by n.
	chirpAt := func(k int) complex128 {
		if inverse {
			return cmplx.Conj(p.chirp[k])
		}
		return p.chirp[k]
	}
	kernel := p.kernelF
	if inverse {
		kernel = p.kernelI
	}
	a := p.conv
	for k := 0; k < p.n; k++ {
		a[k] = src[k] * chirpAt(k)
	}
	for k := p.n; k < p.m; k++ {
		a[k] = 0
	}
	radix2(a, false)
	for i := range a {
		a[i] *= kernel[i]
	}
	radix2(a, true)
	scale := complex(1/float64(p.m), 0)
	if inverse {
		scale /= complex(float64(p.n), 0)
	}
	for k := 0; k < p.n; k++ {
		dst[k] = a[k] * scale * chirpAt(k)
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
