package zigbee

import (
	"fmt"
)

// ClockRecovery is an early–late gate symbol-timing loop for the half-sine
// O-QPSK waveform, standing in for the Mueller&Müller/polyphase loops of
// GNU Radio and commodity receivers. Each chip is sampled at its estimated
// pulse center via linear interpolation; the timing error detector compares
// the samples one position early and late (equal for a centered half-sine)
// and a first-order loop filter tracks the offset.
//
// On a clean O-QPSK waveform the loop locks to the pulse peaks and the
// output matches PeakChipsInto. On a distorted waveform — such as the OFDM
// emulation with its per-segment cyclic-prefix seams and quantization
// ripple — the detector output is noisy, the timing estimate jitters, and
// the chip samples pick up the amplitude modulation that the paper's
// constellation defense keys on.
type ClockRecovery struct {
	// Mu is the loop gain (default 0.05).
	Mu float64
	// MaxOffset clamps the timing estimate in samples (default 1.5).
	MaxOffset float64
}

// DefaultClockRecovery returns the gains used by the experiments.
func DefaultClockRecovery() ClockRecovery {
	return ClockRecovery{Mu: 0.05, MaxOffset: 1.5}
}

// RecoveredChips holds the loop output.
type RecoveredChips struct {
	// Soft is the one-sample-per-chip stream in transmit order (I, Q, ...).
	Soft []float64
	// Timing is the per-chip-pair timing estimate in samples, for
	// diagnostics (its variance measures how hard the loop struggled).
	Timing []float64
}

// RecoverInto runs the loop over a chip-aligned waveform, writing its
// output into caller-provided buffers (usually arena carves) without
// allocating: soft receives len(soft) chips and timing the per-pair
// estimates, so len(timing) must be len(soft)/2.
func (c ClockRecovery) RecoverInto(soft, timing []float64, waveform []complex128) error {
	if c.Mu <= 0 || c.Mu > 1 {
		return fmt.Errorf("zigbee: clock recovery gain %v outside (0, 1]", c.Mu)
	}
	if c.MaxOffset <= 0 || c.MaxOffset >= SamplesPerPulse/2 {
		return fmt.Errorf("zigbee: max offset %v outside (0, %d)", c.MaxOffset, SamplesPerPulse/2)
	}
	numChips := len(soft)
	if numChips <= 0 || numChips%2 != 0 {
		return fmt.Errorf("zigbee: invalid chip count %d", numChips)
	}
	pairs := numChips / 2
	if len(timing) != pairs {
		return fmt.Errorf("zigbee: timing buffer has %d entries, want %d", len(timing), pairs)
	}
	// The late sample of the final Q chip reaches one past its peak.
	need := (pairs-1)*SamplesPerPulse + QOffsetSamples + SamplesPerPulse/2 + 2
	if len(waveform) < need {
		return fmt.Errorf("zigbee: waveform has %d samples, need %d for %d chips", len(waveform), need, numChips)
	}

	const peak = SamplesPerPulse / 2
	tau := 0.0
	for k := 0; k < pairs; k++ {
		iCenter := float64(k*SamplesPerPulse+peak) + tau
		qCenter := float64(k*SamplesPerPulse+QOffsetSamples+peak) + tau
		iv := interpReal(waveform, iCenter)
		qv := interpImag(waveform, qCenter)
		soft[2*k] = iv
		soft[2*k+1] = qv
		timing[k] = tau

		// Early–late error from both arms: positive when sampling early.
		eI := (interpReal(waveform, iCenter+1) - interpReal(waveform, iCenter-1)) * sign(iv)
		eQ := (interpImag(waveform, qCenter+1) - interpImag(waveform, qCenter-1)) * sign(qv)
		tau += c.Mu * (eI + eQ) / 2
		if tau > c.MaxOffset {
			tau = c.MaxOffset
		}
		if tau < -c.MaxOffset {
			tau = -c.MaxOffset
		}
	}
	return nil
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

// interpReal linearly interpolates the real part at fractional index t,
// clamping to the waveform bounds.
func interpReal(w []complex128, t float64) float64 {
	i, frac := splitIndex(t, len(w))
	return real(w[i])*(1-frac) + real(w[i+1])*frac
}

func interpImag(w []complex128, t float64) float64 {
	i, frac := splitIndex(t, len(w))
	return imag(w[i])*(1-frac) + imag(w[i+1])*frac
}

func splitIndex(t float64, n int) (int, float64) {
	if t < 0 {
		t = 0
	}
	if t > float64(n-2) {
		t = float64(n - 2)
	}
	i := int(t)
	return i, t - float64(i)
}
