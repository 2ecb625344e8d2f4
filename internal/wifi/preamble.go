package wifi

import (
	"math"

	"hideseek/internal/dsp"
)

// stfPattern holds S_{−26..26} of IEEE 802.11-2016 Eq. 17-7 without the
// √(13/6) power boost (applied at synthesis time).
var stfPattern = [53]complex128{
	0, 0, 1 + 1i, 0, 0, 0, -1 - 1i, 0, 0, 0, 1 + 1i, 0, 0, 0, -1 - 1i,
	0, 0, 0, -1 - 1i, 0, 0, 0, 1 + 1i, 0, 0, 0, 0, 0, 0, 0, -1 - 1i,
	0, 0, 0, -1 - 1i, 0, 0, 0, 1 + 1i, 0, 0, 0, 1 + 1i, 0, 0, 0, 1 + 1i,
	0, 0, 0, 1 + 1i, 0, 0,
}

// ltfPattern holds L_{−26..26} of Eq. 17-10.
var ltfPattern = [53]complex128{
	1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1,
	1, -1, 1, 1, 1, 1, 0, 1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1,
	-1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1,
}

func patternToSpectrum(p *[53]complex128, scale float64) []complex128 {
	spec := make([]complex128, NumSubcarriers)
	for i, v := range p {
		k := i - 26
		spec[SubcarrierBin(k)] = v * complex(scale, 0)
	}
	return spec
}

// ShortTrainingField returns the 8 µs (160-sample) L-STF: ten repetitions
// of a 0.8 µs pattern used for AGC and coarse timing.
func ShortTrainingField() []complex128 {
	spec := patternToSpectrum(&stfPattern, math.Sqrt(13.0/6.0))
	period := dsp.IFFT(spec) // 64 samples containing 4 repetitions of 16
	out := make([]complex128, 0, 160)
	for len(out) < 160 {
		out = append(out, period[:min(64, 160-len(out))]...)
	}
	return out
}

// LongTrainingField returns the 8 µs (160-sample) L-LTF: a 32-sample guard
// followed by two repetitions of the 64-sample long training symbol, used
// for channel estimation and fine synchronization.
func LongTrainingField() []complex128 {
	spec := patternToSpectrum(&ltfPattern, 1)
	sym := dsp.IFFT(spec)
	out := make([]complex128, 0, 160)
	out = append(out, sym[32:]...) // 32-sample cyclic guard
	out = append(out, sym...)
	out = append(out, sym...)
	return out
}

// Preamble returns the full 16 µs legacy preamble (L-STF ‖ L-LTF).
func Preamble() []complex128 {
	out := ShortTrainingField()
	return append(out, LongTrainingField()...)
}
