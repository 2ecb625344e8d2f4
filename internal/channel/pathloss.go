package channel

import (
	"fmt"
	"math"
)

// PathLossModel is the log-distance model with log-normal shadowing:
//
//	PL(d) = PL(d0) + 10·n·log10(d/d0) + X_σ
//
// It converts transmitter-receiver distance into an average received power,
// standing in for the 1–8 m indoor link of the paper's Fig. 14 / Table V.
type PathLossModel struct {
	// RefLossDB is PL(d0), the path loss at the reference distance.
	RefLossDB float64
	// RefDistance d0 in meters.
	RefDistance float64
	// Exponent n (2 = free space, 2.5–4 indoor).
	Exponent float64
	// ShadowSigmaDB is the log-normal shadowing standard deviation.
	ShadowSigmaDB float64
}

// DefaultIndoorPathLoss returns parameters tuned to the paper's testbed
// scale: a 2.4 GHz indoor lab where the attack decodes reliably out to
// ~5–6 m on the hard-threshold receiver and farther on the commodity one.
func DefaultIndoorPathLoss() PathLossModel {
	return PathLossModel{
		RefLossDB:     40, // free-space loss at 1 m for 2.4 GHz ≈ 40 dB
		RefDistance:   1,
		Exponent:      3.0,
		ShadowSigmaDB: 2.0,
	}
}

// LossDB returns the mean path loss at distance d (no shadowing).
func (m PathLossModel) LossDB(d float64) (float64, error) {
	if d <= 0 {
		return 0, fmt.Errorf("channel: distance %v must be positive", d)
	}
	if m.RefDistance <= 0 {
		return 0, fmt.Errorf("channel: reference distance %v must be positive", m.RefDistance)
	}
	return m.RefLossDB + 10*m.Exponent*math.Log10(d/m.RefDistance), nil
}
