package dsp

import "fmt"

// Interpolator upsamples a complex baseband stream by an integer factor
// using zero-stuffing followed by a windowed-sinc anti-imaging filter. The
// attacker uses factor 5 to lift the 4 MS/s ZigBee capture to WiFi's
// 20 MS/s clock.
//
// The filter runs in polyphase form: each output visits only the inputs the
// zero-stuffed stream would hold at its taps, in the same order and with
// the same operations as filtering the stuffed stream, so the result is bit
// for bit that of the textbook zero-stuff-then-filter design.
//
// Process allocates per call and is safe for concurrent use; ProcessInto
// reuses an internal gain-scaled input buffer and is NOT — give each
// worker goroutine its own Interpolator.
type Interpolator struct {
	factor int
	lp     *FIR
	scaled []complex128 // ProcessInto scratch: x·factor
}

// NewInterpolator builds an interpolator for the given factor. tapsPerPhase
// controls filter quality; 8 is plenty for the 2 MHz-in-20 MHz use here.
func NewInterpolator(factor, tapsPerPhase int) (*Interpolator, error) {
	if factor < 1 {
		return nil, fmt.Errorf("dsp: interpolation factor %d < 1", factor)
	}
	if tapsPerPhase < 2 {
		return nil, fmt.Errorf("dsp: tapsPerPhase %d < 2", tapsPerPhase)
	}
	if factor == 1 {
		return &Interpolator{factor: 1}, nil
	}
	numTaps := factor*tapsPerPhase + 1
	lp, err := DesignLowPass(0.5/float64(factor), numTaps, Blackman)
	if err != nil {
		return nil, fmt.Errorf("dsp: interpolator filter design: %w", err)
	}
	return &Interpolator{factor: factor, lp: lp}, nil
}

// Factor returns the upsampling ratio.
func (ip *Interpolator) Factor() int { return ip.factor }

// Process upsamples x, returning len(x)·factor samples aligned with the
// input (group delay removed) and with gain compensated so the waveform
// amplitude is preserved.
func (ip *Interpolator) Process(x []complex128) []complex128 {
	if ip.factor == 1 {
		out := make([]complex128, len(x))
		copy(out, x)
		return out
	}
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x)*ip.factor)
	ip.processInto(out, x, make([]complex128, len(x)))
	return out
}

// ProcessInto is Process with a caller-provided destination of length
// len(x)·factor (dst must not alias x). The gain-scaled input lives in an
// internal scratch buffer, so repeated same-size calls allocate nothing —
// and the Interpolator is therefore not goroutine-safe through this path.
func (ip *Interpolator) ProcessInto(dst, x []complex128) {
	if len(dst) != len(x)*ip.factor {
		panic(fmt.Sprintf("dsp: interpolate %d samples into %d-sample buffer, want %d", len(x), len(dst), len(x)*ip.factor))
	}
	if ip.factor == 1 {
		copy(dst, x)
		return
	}
	if len(x) == 0 {
		return
	}
	if cap(ip.scaled) < len(x) {
		ip.scaled = make([]complex128, len(x))
	}
	ip.processInto(dst, x, ip.scaled[:len(x)])
}

// processInto filters the zero-stuffed stream s (s[m·factor] = scaled[m],
// zero elsewhere) into dst. Output i is the FIR's sameAt(s, i):
// Σ taps[i+d−k]·s[k] over k in [i+d−(len(taps)−1), i+d] ∩ [0, len(s)),
// with the zero inputs skipped — so only k = m·factor is visited.
func (ip *Interpolator) processInto(dst, x, scaled []complex128) {
	f := ip.factor
	gain := complex(float64(f), 0) // compensate zero-stuffing energy loss
	for i, v := range x {
		scaled[i] = v * gain
	}
	taps := ip.lp.taps
	d := ip.lp.GroupDelay()
	last := len(dst) - 1
	for i := range dst {
		lo := max(i+d-(len(taps)-1), 0)
		hi := min(i+d, last)
		var acc complex128
		for m := (lo + f - 1) / f; m*f <= hi; m++ {
			v := scaled[m]
			if v == 0 {
				continue
			}
			acc += v * complex(taps[i+d-m*f], 0)
		}
		dst[i] = acc
	}
}

// Decimate keeps every factor-th sample of x after low-pass filtering to
// suppress aliasing. It inverts Interpolator.Process for band-limited input.
// It redesigns the anti-alias filter on every call; hot paths should hold a
// Decimator instead.
func Decimate(x []complex128, factor int) ([]complex128, error) {
	d, err := NewDecimator(factor)
	if err != nil {
		return nil, err
	}
	return d.Process(x), nil
}

// Decimator caches the anti-alias low-pass design so repeated decimations
// cost only the output allocation. It filters only at the kept sample
// positions and holds no mutable state, so one Decimator is safe for
// concurrent use.
type Decimator struct {
	factor int
	lp     *FIR
}

// NewDecimator builds a decimator for the given integer factor.
func NewDecimator(factor int) (*Decimator, error) {
	if factor < 1 {
		return nil, fmt.Errorf("dsp: decimation factor %d < 1", factor)
	}
	d := &Decimator{factor: factor}
	if factor == 1 {
		return d, nil
	}
	lp, err := DesignLowPass(0.5/float64(factor), 8*factor+1, Blackman)
	if err != nil {
		return nil, fmt.Errorf("dsp: decimation filter design: %w", err)
	}
	d.lp = lp
	return d, nil
}

// Factor returns the downsampling ratio.
func (d *Decimator) Factor() int { return d.factor }

// Process low-pass filters and downsamples x, returning samples 0, factor,
// 2·factor, … of the delay-compensated filtering of x (FIR.sameAt) in a
// freshly allocated slice (the only per-call allocation). Only those
// outputs are computed.
func (d *Decimator) Process(x []complex128) []complex128 {
	if d.factor == 1 {
		out := make([]complex128, len(x))
		copy(out, x)
		return out
	}
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, (len(x)+d.factor-1)/d.factor)
	for j := range out {
		out[j] = d.lp.sameAt(x, j*d.factor)
	}
	return out
}

// LinearInterpolate performs factor-times linear interpolation — the cheap
// alternative the ablation benches compare against the sinc design.
func LinearInterpolate(x []complex128, factor int) ([]complex128, error) {
	if factor < 1 {
		return nil, fmt.Errorf("dsp: interpolation factor %d < 1", factor)
	}
	if len(x) == 0 {
		return nil, nil
	}
	out := make([]complex128, 0, len(x)*factor)
	for i := 0; i < len(x); i++ {
		cur := x[i]
		next := cur
		if i+1 < len(x) {
			next = x[i+1]
		}
		for p := 0; p < factor; p++ {
			frac := complex(float64(p)/float64(factor), 0)
			out = append(out, cur+(next-cur)*frac)
		}
	}
	return out, nil
}
