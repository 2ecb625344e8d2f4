package channel

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// RayleighGain draws one flat Rayleigh block-fading coefficient with unit
// mean power: h ~ CN(0, 1).
func RayleighGain(rng *rand.Rand) complex128 {
	s := math.Sqrt(0.5)
	return complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
}

// RicianGain draws a Rician coefficient with the given K-factor (ratio of
// line-of-sight to scattered power) and unit mean power. K→∞ degenerates
// to a pure LoS phasor; K=0 is Rayleigh.
func RicianGain(k float64, rng *rand.Rand) complex128 {
	if k < 0 {
		k = 0
	}
	los := cmplx.Rect(math.Sqrt(k/(k+1)), rng.Float64()*2*math.Pi)
	s := math.Sqrt(0.5 / (k + 1))
	return los + complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
}

// Multipath is a tapped-delay-line channel with an exponential power delay
// profile — the static frequency-selective part of the paper's "real
// environment".
type Multipath struct {
	taps []complex128
}

// NewRicianMultipath draws a multipath realization whose first tap is
// Rician with the given K-factor — a line-of-sight-dominated channel
// matching the short indoor links of the paper's testbed (1–8 m with the
// devices in view of each other). Later taps are Rayleigh with an
// exponential power decay relative to the scattered component. The
// realization is normalized to unit power.
func NewRicianMultipath(numTaps int, decay, k float64, rng *rand.Rand) (*Multipath, error) {
	if numTaps < 1 {
		return nil, fmt.Errorf("channel: numTaps %d < 1", numTaps)
	}
	if decay <= 0 || decay > 1 {
		return nil, fmt.Errorf("channel: decay %v outside (0, 1]", decay)
	}
	if k < 0 {
		return nil, fmt.Errorf("channel: negative K-factor %v", k)
	}
	if rng == nil {
		return nil, fmt.Errorf("channel: nil rng")
	}
	taps := make([]complex128, numTaps)
	taps[0] = RicianGain(k, rng)
	// Scattered taps carry 1/(K+1) of the LoS power, decaying further.
	weight := 1.0 / (k + 1)
	for i := 1; i < numTaps; i++ {
		weight *= decay
		taps[i] = RayleighGain(rng) * complex(math.Sqrt(weight), 0)
	}
	norm := complex(1/math.Sqrt(totalPower(taps)), 0)
	for i := range taps {
		taps[i] *= norm
	}
	return &Multipath{taps: taps}, nil
}

func totalPower(taps []complex128) float64 {
	var p float64
	for _, t := range taps {
		p += real(t)*real(t) + imag(t)*imag(t)
	}
	if p == 0 {
		return 1
	}
	return p
}

// Taps returns a copy of the impulse response.
func (c *Multipath) Taps() []complex128 {
	out := make([]complex128, len(c.taps))
	copy(out, c.taps)
	return out
}

// Apply convolves x with the impulse response, truncated to len(x) so
// timing is preserved.
func (c *Multipath) Apply(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		if v == 0 {
			continue
		}
		for j, t := range c.taps {
			if i+j >= len(out) {
				break
			}
			out[i+j] += v * t
		}
	}
	return out
}

// DopplerPhaseNoise models slow random phase drift from motion in the
// environment ("human activities such as walking", Sec. VII-D): a Wiener
// phase process with the given per-sample standard deviation.
type DopplerPhaseNoise struct {
	rng   *rand.Rand
	sigma float64
}

// NewDopplerPhaseNoise builds the phase-drift channel. sigmaRadPerSample of
// ~1e-4 at 4 MS/s corresponds to slow pedestrian-scale variation.
func NewDopplerPhaseNoise(sigmaRadPerSample float64, rng *rand.Rand) (*DopplerPhaseNoise, error) {
	if sigmaRadPerSample < 0 {
		return nil, fmt.Errorf("channel: negative sigma %v", sigmaRadPerSample)
	}
	if rng == nil {
		return nil, fmt.Errorf("channel: nil rng")
	}
	return &DopplerPhaseNoise{rng: rng, sigma: sigmaRadPerSample}, nil
}

// Apply integrates a random phase walk over the waveform.
func (c *DopplerPhaseNoise) Apply(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	phase := 0.0
	for i, v := range x {
		phase += c.rng.NormFloat64() * c.sigma
		out[i] = v * cmplx.Rect(1, phase)
	}
	return out
}
