// Package sim wires the full stack — APP payloads, ZigBee MAC/PHY, the
// WiFi attacker, channel models, and the defense — into reproducible
// experiment drivers, one per table and figure of the paper's evaluation
// (Sec. VII). Every driver takes a Config (zero value = paper defaults)
// and returns a structured result satisfying Renderable, so
// cmd/experiments, the registry, and the benchmarks share one
// implementation. Registry lists every experiment in canonical order.
//
// Execution model: every trial fan-out routes through internal/runner.
// Each sweep point owns a disjoint salt region (see sweepBase), each trial
// inside it draws a private RNG from (seed, base+trial), and results are
// collected in trial-index order — so rendered tables are byte-identical
// at any worker count.
package sim

import (
	"fmt"
	"math/rand"

	"hideseek/internal/emulation"
	"hideseek/internal/runner"
	"hideseek/internal/zigbee"
)

// maxPayloads bounds the APP workload so every payload formats to exactly
// payloadWidth digits: fmt.Sprintf("%05d", i) would silently widen to six
// characters at i = 100000.
const (
	payloadWidth = 5
	maxPayloads  = 100000 // indices 0..99999 all format to payloadWidth digits
)

// Payloads returns the paper's APP-layer workload: the texts "00000"
// through "000<n-1>" (Sec. VII-C-1 uses 00000–00099). Every payload is
// exactly payloadWidth bytes.
func Payloads(n int) ([][]byte, error) {
	if n < 1 || n > maxPayloads {
		return nil, fmt.Errorf("sim: payload count %d outside [1, %d]", n, maxPayloads)
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("%0*d", payloadWidth, i))
	}
	return out, nil
}

// Salt regions: one per trial fan-out. sweepBase gives every (region,
// sweep point) pair a disjoint 2^32-trial salt block, so no two trials
// anywhere in the experiment suite share an RNG stream.
const (
	regionTable2 = iota
	regionCumulant
	regionDistance
	regionFig14
	regionTable5
	regionAblSubcarriers
	regionAblDefenseSource
	regionAblSampleCount
	regionEvasion
	regionAMC
	regionCSMA
	regionSession
	regionAdaptiveTrain
	regionAdaptiveTest
	regionFig7
	// New regions append AFTER the existing ones: the iota values feed the
	// salt derivation, so reordering would silently change every golden.
	regionLoRaFidelity
	regionLoRaROC
	regionCalibROC
)

// sweepBase returns the salt block for one sweep point of one region.
func sweepBase(region, point int) int64 {
	return (int64(region)*4096 + int64(point)) << 32
}

// pool returns the worker pool every driver fans out on: sized by the
// process default (the -workers flag via runner.SetDefaultWorkers).
func pool() runner.Pool { return runner.NewPool(0) }

// Link bundles one pre-built transmission: the authentic ZigBee waveform
// and its emulated counterpart, both at the victim's 4 MS/s clock.
type Link struct {
	Payload  []byte
	Original []complex128
	Emulated []complex128
	Result   *emulation.Result
}

// linkScratch is the per-worker attacker kit for BuildLinks.
type linkScratch struct {
	tx *zigbee.Transmitter
	em *emulation.Emulator
}

// BuildLinks transmits every payload on the ZigBee PHY and runs the attack
// on each observation, fanning the payloads across the worker pool.
func BuildLinks(payloads [][]byte, attack emulation.AttackConfig) ([]*Link, error) {
	links, err := runner.Map(pool(), runner.Sweep{}, len(payloads),
		func() (*linkScratch, error) {
			em, err := emulation.NewEmulator(attack)
			if err != nil {
				return nil, fmt.Errorf("sim: %w", err)
			}
			return &linkScratch{tx: zigbee.NewTransmitter(), em: em}, nil
		},
		func(t runner.Trial, s *linkScratch) (*Link, error) {
			p := payloads[t.Index]
			obs, err := s.tx.TransmitPSDU(p)
			if err != nil {
				return nil, fmt.Errorf("sim: payload %d: %w", t.Index, err)
			}
			res, err := s.em.Emulate(obs)
			if err != nil {
				return nil, fmt.Errorf("sim: payload %d: %w", t.Index, err)
			}
			return &Link{
				Payload:  p,
				Original: padTail(obs, 8),
				Emulated: padTail(res.Emulated4M, 8),
				Result:   res,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return links, nil
}

// victim is the ZigBee receive kit: a receiver and the cumulant defense.
type victim struct {
	rx  *zigbee.Receiver
	det *emulation.Detector
}

func newVictim(mode zigbee.DespreadMode, defense emulation.DefenseConfig) (*victim, error) {
	rx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{Mode: mode, SyncThreshold: 0.3})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	det, err := emulation.NewDetector(defense)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &victim{rx: rx, det: det}, nil
}

// victimOf is newVictim as a per-worker constructor.
func victimOf(mode zigbee.DespreadMode, defense emulation.DefenseConfig) func() (*victim, error) {
	return func() (*victim, error) { return newVictim(mode, defense) }
}

// zigbeeVerdict receives one waveform and runs the defense on it.
func zigbeeVerdict(v *victim, _ *Link, rx []complex128) (emulation.Verdict, bool) {
	rec, err := v.rx.Receive(rx)
	if err != nil {
		return emulation.Verdict{}, false
	}
	vd, err := v.det.AnalyzeReception(rec)
	return vd, err == nil
}

// zigbeeD2 is zigbeeVerdict's D²E.
func zigbeeD2(v *victim, l *Link, rx []complex128) (float64, bool) {
	vd, ok := zigbeeVerdict(v, l, rx)
	return vd.DistanceSquared, ok
}

// firstObservation transmits the workload's first payload ("00000") on
// the ZigBee PHY: the frame the attacker observes, and that payload.
func firstObservation() (payload []byte, obs []complex128, err error) {
	payloads, err := Payloads(1)
	if err != nil {
		return nil, nil, err
	}
	obs, err = zigbee.NewTransmitter().TransmitPSDU(payloads[0])
	if err != nil {
		return nil, nil, err
	}
	return payloads[0], obs, nil
}

// firstLink builds the link of the workload's first payload ("00000")
// under the paper attack: the one transmission most drivers sweep.
func firstLink() (*Link, error) {
	payloads, err := Payloads(1)
	if err != nil {
		return nil, err
	}
	links, err := BuildLinks(payloads, emulation.AttackConfig{})
	if err != nil {
		return nil, err
	}
	return links[0], nil
}

// padTail appends n zero samples so channel delay spread and timing shifts
// cannot starve the receiver of the frame's final chips.
func padTail(wave []complex128, n int) []complex128 {
	out := make([]complex128, len(wave)+n)
	copy(out, wave)
	return out
}

// rngFor derives a child RNG so experiments stay reproducible even when
// individual trials are reordered. It is the runner package's derivation;
// single-shot drivers (Fig. 6, Fig. 8) use it directly, sweeps get the
// same streams through runner.Map.
func rngFor(seed int64, salt int64) *rand.Rand {
	return runner.RNG(seed, salt)
}

// payloadMatches reports whether a reception decoded the expected PSDU.
func payloadMatches(rec *zigbee.Reception, want []byte) bool {
	if rec == nil || len(rec.PSDU) != len(want) {
		return false
	}
	for i := range want {
		if rec.PSDU[i] != want[i] {
			return false
		}
	}
	return true
}
