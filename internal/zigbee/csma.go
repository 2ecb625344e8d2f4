package zigbee

import (
	"fmt"
	"math/rand"
)

// This file implements the unslotted CSMA/CA algorithm of IEEE 802.15.4
// §6.2.5.1 together with clear channel assessment against a modelled
// medium — the mechanism the WiFi attacker uses to confirm "that ZigBee devices are not
// communicating" before transmitting the emulated waveform (paper Sec. IV-B).

// CSMA timing constants (2.4 GHz O-QPSK PHY).
const (
	// UnitBackoffPeriodUs is aUnitBackoffPeriod = 20 symbols × 16 µs.
	UnitBackoffPeriodUs = 320.0
	// CCADurationUs is 8 symbol periods of energy measurement.
	CCADurationUs = 128.0
)

// CSMAConfig holds the backoff parameters (defaults follow the standard).
type CSMAConfig struct {
	MinBE       int // macMinBE, default 3
	MaxBE       int // macMaxBE, default 5
	MaxBackoffs int // macMaxCSMABackoffs, default 4
}

func (c *CSMAConfig) applyDefaults() error {
	if c.MinBE == 0 {
		c.MinBE = 3
	}
	if c.MaxBE == 0 {
		c.MaxBE = 5
	}
	if c.MaxBackoffs == 0 {
		c.MaxBackoffs = 4
	}
	if c.MinBE < 0 || c.MaxBE < c.MinBE || c.MaxBE > 8 {
		return fmt.Errorf("zigbee: invalid backoff exponents min=%d max=%d", c.MinBE, c.MaxBE)
	}
	if c.MaxBackoffs < 0 || c.MaxBackoffs > 10 {
		return fmt.Errorf("zigbee: invalid MaxBackoffs %d", c.MaxBackoffs)
	}
	return nil
}

// Medium answers clear-channel queries at microsecond granularity.
type Medium interface {
	// BusyAt reports whether any transmission overlaps
	// [timeUs, timeUs+CCADurationUs).
	BusyAt(timeUs float64) bool
}

// IdleMedium is always clear.
type IdleMedium struct{}

// BusyAt always reports a clear channel.
func (IdleMedium) BusyAt(float64) bool { return false }

// PeriodicTraffic models a transmitter that occupies the channel for
// BusyUs out of every PeriodUs, starting at OffsetUs.
type PeriodicTraffic struct {
	PeriodUs float64
	BusyUs   float64
	OffsetUs float64
}

// BusyAt reports whether the CCA window overlaps a busy interval.
func (p PeriodicTraffic) BusyAt(timeUs float64) bool {
	if p.PeriodUs <= 0 || p.BusyUs <= 0 {
		return false
	}
	start := timeUs - p.OffsetUs
	for _, edge := range []float64{start, start + CCADurationUs} {
		phase := edge - p.PeriodUs*float64(int(edge/p.PeriodUs))
		if phase < 0 {
			phase += p.PeriodUs
		}
		if phase < p.BusyUs {
			return true
		}
	}
	return false
}

// CSMAResult records one channel-access attempt.
type CSMAResult struct {
	// Success is true when a CCA found the channel idle within the backoff
	// budget.
	Success bool
	// Backoffs is the number of busy CCAs encountered.
	Backoffs int
	// DelayUs is the total time spent from invocation to the decision.
	DelayUs float64
}

// PerformCSMA runs the unslotted CSMA/CA algorithm against the medium
// starting at startUs.
func PerformCSMA(cfg CSMAConfig, medium Medium, startUs float64, rng *rand.Rand) (CSMAResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return CSMAResult{}, err
	}
	if medium == nil || rng == nil {
		return CSMAResult{}, fmt.Errorf("zigbee: nil medium or rng")
	}
	now := startUs
	be := cfg.MinBE
	res := CSMAResult{}
	for nb := 0; ; nb++ {
		// Random backoff of 0..2^BE−1 unit periods.
		periods := 0
		if be > 0 {
			periods = rng.Intn(1 << uint(be))
		}
		now += float64(periods) * UnitBackoffPeriodUs
		// CCA.
		busy := medium.BusyAt(now)
		now += CCADurationUs
		if !busy {
			res.Success = true
			res.Backoffs = nb
			res.DelayUs = now - startUs
			return res, nil
		}
		if nb+1 > cfg.MaxBackoffs {
			res.Backoffs = nb + 1
			res.DelayUs = now - startUs
			return res, nil
		}
		if be < cfg.MaxBE {
			be++
		}
	}
}
