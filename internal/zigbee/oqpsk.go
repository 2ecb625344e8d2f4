package zigbee

import (
	"fmt"
	"math"

	"hideseek/internal/bits"
)

// halfSine holds one sampled half-sine pulse: each I/Q chip lasts 1 µs =
// SamplesPerPulse samples, shaped as sin(πt/Tp). The pulse is zero at both
// ends, so adjacent pulses tile without overlap — the MSK-like property
// that gives O-QPSK its constant envelope.
var halfSine = buildHalfSine()

func buildHalfSine() [SamplesPerPulse]float64 {
	var p [SamplesPerPulse]float64
	for m := range p {
		p[m] = math.Sin(math.Pi * float64(m) / float64(SamplesPerPulse))
	}
	return p
}

// pulseEnergy is Σ p² — the matched-filter normalization constant.
var pulseEnergy = func() float64 {
	var e float64
	for _, v := range halfSine {
		e += v * v
	}
	return e
}()

// QOffsetSamples is the half-chip-period offset of the quadrature arm:
// Tc = 0.5 µs = 2 samples at 4 MS/s.
const QOffsetSamples = SamplesPerChip

// Modulate converts a chip stream to a complex baseband waveform at 4 MS/s.
// Even-indexed chips drive the in-phase arm, odd-indexed chips the
// quadrature arm delayed by QOffsetSamples. Chip count must be even (it is
// always a multiple of 32 in practice). The output carries the trailing
// QOffsetSamples of the final Q pulse, so its length is
// len(chips)/2·SamplesPerPulse + QOffsetSamples.
func Modulate(chips []bits.Bit) ([]complex128, error) {
	if len(chips)%2 != 0 {
		return nil, fmt.Errorf("zigbee: odd chip count %d", len(chips))
	}
	pairs := len(chips) / 2
	n := pairs*SamplesPerPulse + QOffsetSamples
	out := make([]complex128, n)
	for k := 0; k < pairs; k++ {
		iAmp := chipAmplitude(chips[2*k])
		qAmp := chipAmplitude(chips[2*k+1])
		iStart := k * SamplesPerPulse
		qStart := iStart + QOffsetSamples
		for m := 0; m < SamplesPerPulse; m++ {
			out[iStart+m] += complex(iAmp*halfSine[m], 0)
			out[qStart+m] += complex(0, qAmp*halfSine[m])
		}
	}
	return out, nil
}

func chipAmplitude(c bits.Bit) float64 {
	if c == 1 {
		return 1
	}
	return -1
}

// DemodulateInto matched-filters a baseband waveform (assumed
// chip-aligned: sample 0 is the start of the first I pulse) back into
// len(dst) soft chip values, written into dst (usually a reused scratch or
// arena carve) without allocating. The waveform must be long enough to
// cover them. The output interleaves I and Q chips in transmit order and
// each value is normalized so a clean ±1 pulse yields ±1.
func DemodulateInto(dst []float64, waveform []complex128) error {
	numChips := len(dst)
	if numChips <= 0 || numChips%2 != 0 {
		return fmt.Errorf("zigbee: invalid chip count %d", numChips)
	}
	pairs := numChips / 2
	need := pairs*SamplesPerPulse + QOffsetSamples
	if len(waveform) < need {
		return fmt.Errorf("zigbee: waveform has %d samples, need %d for %d chips", len(waveform), need, numChips)
	}
	for k := 0; k < pairs; k++ {
		iStart := k * SamplesPerPulse
		qStart := iStart + QOffsetSamples
		var iAcc, qAcc float64
		for m := 0; m < SamplesPerPulse; m++ {
			iAcc += real(waveform[iStart+m]) * halfSine[m]
			qAcc += imag(waveform[qStart+m]) * halfSine[m]
		}
		dst[2*k] = iAcc / pulseEnergy
		dst[2*k+1] = qAcc / pulseEnergy
	}
	return nil
}

// PeakChipsInto samples each half-sine pulse once at its center instead of
// matched-filtering the whole pulse, writing len(dst) chips into dst
// without allocating. This mirrors the one-sample-per-chip stream a
// clock-recovery loop (e.g. GNU Radio's 802.15.4 receiver) hands to DSSS
// demodulation — the signal the paper's defense analyzes. Peak sampling
// preserves waveform distortion that the 4-sample matched filter would
// average away, which is exactly why the defense taps it.
func PeakChipsInto(dst []float64, waveform []complex128) error {
	numChips := len(dst)
	if numChips <= 0 || numChips%2 != 0 {
		return fmt.Errorf("zigbee: invalid chip count %d", numChips)
	}
	pairs := numChips / 2
	need := pairs*SamplesPerPulse + QOffsetSamples
	if len(waveform) < need {
		return fmt.Errorf("zigbee: waveform has %d samples, need %d for %d chips", len(waveform), need, numChips)
	}
	const peak = SamplesPerPulse / 2
	for k := 0; k < pairs; k++ {
		iStart := k * SamplesPerPulse
		dst[2*k] = real(waveform[iStart+peak])
		dst[2*k+1] = imag(waveform[iStart+QOffsetSamples+peak])
	}
	return nil
}

// DiscriminatorChipsInto extracts one real value per chip from the FM
// (quadrature) discriminator, the front end of the GNU Radio 802.15.4
// receiver the paper's experiments build on (Bloessl et al., paper ref
// [22]): instantaneous frequency → chip-rate sampling → normalization.
// It writes len(dst) values into dst without allocating.
//
// Half-sine O-QPSK is an MSK signal, so a clean waveform has constant
// instantaneous frequency ±π/4 rad/sample at 2 samples/chip; the output is
// normalized by that constant so clean chips land on ±1. Waveform
// distortion — quantization ripple, cyclic-prefix seams — appears directly
// as frequency excursions, which is what makes the discriminator stream
// far more revealing for the constellation defense than matched-filter
// outputs. The phase increments are evaluated only at the chip-rate
// sample points instead of materializing the whole InstantaneousFrequency
// stream, which produces bitwise-identical values (each output depends
// only on one sample pair).
func DiscriminatorChipsInto(dst []float64, waveform []complex128) error {
	numChips := len(dst)
	if numChips <= 0 {
		return fmt.Errorf("zigbee: invalid chip count %d", numChips)
	}
	yields := len(waveform) - 1
	if yields < 0 {
		yields = 0
	}
	if yields < numChips*SamplesPerChip {
		return fmt.Errorf("zigbee: waveform yields %d frequency samples, need %d for %d chips",
			yields, numChips*SamplesPerChip, numChips)
	}
	const nominal = math.Pi / 4 // |Δphase| per sample for clean MSK
	for k := 0; k < numChips; k++ {
		// One sample per chip: the phase increment fully inside chip period
		// k (the second increment straddles the chip boundary). This is
		// what a chip-rate clock-recovery loop hands downstream; averaging
		// both increments would add ~3 dB of smoothing a real chain does
		// not have. freq[i−1] = arg(x[i]·conj(x[i−1])), evaluated here at
		// i = k·SamplesPerChip+1 only.
		a := waveform[k*SamplesPerChip+1]
		b := waveform[k*SamplesPerChip]
		re := real(a)*real(b) + imag(a)*imag(b)
		im := imag(a)*real(b) - real(a)*imag(b)
		dst[k] = math.Atan2(im, re) / nominal
	}
	return nil
}

// InstantaneousFrequency returns the discrete phase derivative of the
// waveform in radians per sample — the "output of OQPSK demodulation ...
// the signal frequency related to the sample rate" that the paper's Fig. 9a
// examines (and rejects) as a detection feature.
func InstantaneousFrequency(waveform []complex128) []float64 {
	if len(waveform) < 2 {
		return nil
	}
	out := make([]float64, len(waveform)-1)
	for i := 1; i < len(waveform); i++ {
		// arg(x[i]·conj(x[i−1])) is the wrapped phase increment.
		a := waveform[i]
		b := waveform[i-1]
		re := real(a)*real(b) + imag(a)*imag(b)
		im := imag(a)*real(b) - real(a)*imag(b)
		out[i-1] = math.Atan2(im, re)
	}
	return out
}
