package sim

import (
	"fmt"
	"math"
	"math/rand"

	"hideseek/internal/channel"
	"hideseek/internal/emulation"
	"hideseek/internal/runner"
	"hideseek/internal/zigbee"
)

// RadioConfig models one victim radio for the distance experiments.
type RadioConfig struct {
	// Name appears in reports ("USRP", "CC26x2R1").
	Name string
	// Mode selects the despreader: the USRP/GNU Radio chain decodes from
	// the FM discriminator; the commodity chip's "stronger demodulation
	// functions" (Sec. VII-D) are modeled as coherent soft max-correlation
	// despreading.
	Mode zigbee.DespreadMode
	// FrontEndGainDB adds receiver implementation gain (better LNA and
	// antenna on the commodity board).
	FrontEndGainDB float64
}

// USRPReceiver models the paper's USRP N210 victim.
func USRPReceiver() RadioConfig {
	return RadioConfig{Name: "USRP", Mode: zigbee.FMDiscriminator}
}

// CC26x2R1Receiver models the TI LaunchPad victim.
func CC26x2R1Receiver() RadioConfig {
	return RadioConfig{Name: "CC26x2R1", Mode: zigbee.SoftCorrelation, FrontEndGainDB: 3}
}

// DistanceLinkBudget fixes the link parameters of the Fig. 14 / Table V
// testbed substitute.
type DistanceLinkBudget struct {
	// SNRAt1mDB is the receive SNR at the 1 m reference (before front-end
	// gain), standing in for the 0.75 USRP power gains of Sec. VII-D.
	SNRAt1mDB float64
	// PathLoss is the log-distance model.
	PathLoss channel.PathLossModel
}

// DefaultLinkBudget returns values tuned so the hard-threshold receiver
// decodes reliably to ~5 m and fails by 8 m while the commodity model
// reaches 8 m — the paper's Fig. 14 shape.
func DefaultLinkBudget() DistanceLinkBudget {
	pl := channel.DefaultIndoorPathLoss()
	pl.ShadowSigmaDB = 1
	return DistanceLinkBudget{SNRAt1mDB: 35, PathLoss: pl}
}

// snrAt returns the per-trial receive SNR at distance d for a radio.
func (b DistanceLinkBudget) snrAt(d float64, radio RadioConfig, rng interface {
	NormFloat64() float64
}) (float64, error) {
	if d <= 0 {
		return 0, fmt.Errorf("sim: distance %v must be positive", d)
	}
	loss, err := b.PathLoss.LossDB(d)
	if err != nil {
		return 0, err
	}
	ref, err := b.PathLoss.LossDB(b.PathLoss.RefDistance)
	if err != nil {
		return 0, err
	}
	shadow := rng.NormFloat64() * b.PathLoss.ShadowSigmaDB
	return b.SNRAt1mDB - (loss - ref) - shadow + radio.FrontEndGainDB, nil
}

// amplitudeAt converts a per-trial SNR back to the linear signal amplitude
// against the fixed noise floor N0 = 10^(−SNRAt1m/10): the waveform is
// attenuated rather than the noise grown, so RSSI behaves physically.
func (b DistanceLinkBudget) amplitudeAt(snrDB float64) float64 {
	return math.Pow(10, (snrDB-b.SNRAt1mDB)/20)
}

// Fig14Result reproduces Fig. 14: packet and symbol error rates vs
// distance for both waveform classes at one receiver model.
type Fig14Result struct {
	Radio     RadioConfig
	Distances []float64
	// Error rates indexed by distance.
	OriginalPER, OriginalSER []float64
	EmulatedPER, EmulatedSER []float64
	Packets                  int
	// MeanRSSIdB per distance (relative to unit TX power).
	MeanRSSIdB []float64
}

// Fig14 sweeps distance with the real-environment channel and counts
// packet/symbol errors over cfg.Trials transmissions per class (default
// 100). A zero budget selects DefaultLinkBudget; nil distances the paper's
// 1–8 m sweep.
func Fig14(cfg Config, radio RadioConfig, budget DistanceLinkBudget, distances []float64) (*Fig14Result, error) {
	seed := cfg.Seed
	packets := cfg.TrialsOr(100)
	if budget == (DistanceLinkBudget{}) {
		budget = DefaultLinkBudget()
	}
	if distances == nil {
		distances = []float64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if packets < 1 {
		return nil, fmt.Errorf("sim: packets %d < 1", packets)
	}
	payloads, err := Payloads(minInt(packets, 100))
	if err != nil {
		return nil, err
	}
	links, err := BuildLinks(payloads, emulation.AttackConfig{})
	if err != nil {
		return nil, err
	}
	// Each class's packet error, symbol error rate and RSSI; the table
	// reports the authentic class's RSSI.
	type packetScore struct{ per, ser, rssi float64 }
	k := twoClass[*victim, packetScore]{links: links, victim: victimOf(radio.Mode, emulation.DefenseConfig{}),
		measure: func(v *victim, l *Link, rx []complex128) (packetScore, bool) {
			per, ser := scoreReception(v.rx, rx, l.Payload)
			return packetScore{per: per, ser: ser, rssi: channel.RSSI(rx)}, true
		}}
	per := func(s packetScore) float64 { return s.per }
	ser := func(s packetScore) float64 { return s.ser }
	res := &Fig14Result{Radio: radio, Distances: distances, Packets: packets}
	for di, d := range distances {
		orig, emul, err := k.run(runner.Sweep{Seed: seed, Base: sweepBase(regionFig14, di)}, packets,
			func(rng *rand.Rand) (channel.Channel, error) {
				snr, err := budget.snrAt(d, radio, rng)
				if err != nil {
					return nil, err
				}
				// Real environment: path-loss attenuation, slow LoS-dominated
				// fading and phase drift, then the fixed receiver noise floor.
				gain := channel.NewGain(complex(budget.amplitudeAt(snr), 0))
				mp, err := channel.NewRicianMultipath(2, 0.25, 8, rng)
				if err != nil {
					return nil, err
				}
				doppler, err := channel.NewDopplerPhaseNoise(1e-4, rng)
				if err != nil {
					return nil, err
				}
				awgn, err := channel.NewAWGN(budget.SNRAt1mDB, rng)
				if err != nil {
					return nil, err
				}
				return channel.NewChain(gain, mp, doppler, awgn)
			})
		if err != nil {
			return nil, err
		}
		res.OriginalPER = append(res.OriginalPER, meanBy(orig, per))
		res.EmulatedPER = append(res.EmulatedPER, meanBy(emul, per))
		res.OriginalSER = append(res.OriginalSER, meanBy(orig, ser))
		res.EmulatedSER = append(res.EmulatedSER, meanBy(emul, ser))
		res.MeanRSSIdB = append(res.MeanRSSIdB, meanBy(orig, func(s packetScore) float64 { return s.rssi }))
	}
	return res, nil
}

// scoreReception returns the packet error (0 or 1) and the symbol error
// rate of one reception.
func scoreReception(rx *zigbee.Receiver, wave []complex128, want []byte) (per, ser float64) {
	rec, err := rx.Receive(wave)
	if err != nil || !payloadMatches(rec, want) {
		// Packet lost; estimate symbol errors from whatever was despread.
		if rec == nil || len(rec.Results) == 0 {
			return 1, 1
		}
		// A frame that failed for another reason (sync, FCS) with clean
		// symbols counts the packet at SER 0.
		return 1, symbolErrorRate(rec)
	}
	return 0, symbolErrorRate(rec)
}

// symbolErrorRate is the dropped share of a reception's symbols.
func symbolErrorRate(rec *zigbee.Reception) float64 {
	errs := 0
	for _, r := range rec.Results {
		if r.Dropped {
			errs++
		}
	}
	return float64(errs) / float64(len(rec.Results))
}

// Render emits the Fig. 14 rows for this receiver.
func (r *Fig14Result) Render() *Table {
	t := NewTable(fmt.Sprintf("Fig. 14 — Attack Performance vs Distance (receiver: %s, %d packets)", r.Radio.Name, r.Packets),
		"distance (m)", "orig PER", "orig SER", "emul PER", "emul SER", "mean RSSI (dB)")
	for i, d := range r.Distances {
		t.AddRowf(d, r.OriginalPER[i], r.OriginalSER[i], r.EmulatedPER[i], r.EmulatedSER[i], r.MeanRSSIdB[i])
	}
	return t
}

// Table5Result reproduces Table V: averaged D²E vs distance in the real
// environment, with the per-class separation that admits a threshold in
// the paper's [0.1, 1] band (ours is correspondingly lower; see
// EXPERIMENTS.md).
type Table5Result struct {
	Distances []float64
	Original  []float64
	Emulated  []float64
	// SuggestedQ is the midpoint threshold from these measurements.
	SuggestedQ float64
	Samples    int
}

// Table5 averages D² per distance over cfg.Trials receptions per class
// (default 100) using the real-environment channel and the
// |C40|/mean-removed detector. A zero budget selects DefaultLinkBudget;
// nil distances the paper's 1–6 m sweep.
func Table5(cfg Config, budget DistanceLinkBudget, distances []float64) (*Table5Result, error) {
	seed := cfg.Seed
	samples := cfg.TrialsOr(100)
	if budget == (DistanceLinkBudget{}) {
		budget = DefaultLinkBudget()
	}
	if distances == nil {
		distances = []float64{1, 2, 3, 4, 5, 6}
	}
	if samples < 1 {
		return nil, fmt.Errorf("sim: samples %d < 1", samples)
	}
	link, err := firstLink()
	if err != nil {
		return nil, err
	}
	// Chip extraction for the defense uses the robust coherent receiver —
	// the despread mode only matters for Fig. 14's decode comparison; the
	// defense taps the discriminator chips regardless.
	radio := USRPReceiver()
	k := twoClass[*victim, float64]{links: []*Link{link}, measure: zigbeeD2, paired: true,
		victim: victimOf(zigbee.HardThreshold, emulation.DefenseConfig{RemoveMean: true, UseAbsC40: true})}
	res := &Table5Result{Distances: distances, Samples: samples}
	var maxO, minE = 0.0, math.Inf(1)
	for di, d := range distances {
		orig, emul, err := k.run(runner.Sweep{Seed: seed, Base: sweepBase(regionTable5, di)}, samples,
			func(rng *rand.Rand) (channel.Channel, error) {
				snr, err := budget.snrAt(d, radio, rng)
				if err != nil {
					return nil, err
				}
				return realChannelAt(rng, snr)
			})
		if err != nil {
			return nil, err
		}
		if len(orig) == 0 {
			return nil, fmt.Errorf("sim: no successful receptions at %g m", d)
		}
		o, e := mean(orig), mean(emul)
		res.Original = append(res.Original, o)
		res.Emulated = append(res.Emulated, e)
		maxO = math.Max(maxO, o)
		minE = math.Min(minE, e)
	}
	res.SuggestedQ = (maxO + minE) / 2
	return res, nil
}

// realChannelAt builds a fresh real-environment chain from an existing RNG.
func realChannelAt(rng *rand.Rand, snrDB float64) (channel.Channel, error) {
	mp, err := channel.NewRicianMultipath(3, 0.35, 8, rng)
	if err != nil {
		return nil, err
	}
	doppler, err := channel.NewDopplerPhaseNoise(2e-4, rng)
	if err != nil {
		return nil, err
	}
	cfo, err := channel.NewCFO(60+rng.Float64()*80, zigbee.SampleRate, rng.Float64()*6.28)
	if err != nil {
		return nil, err
	}
	awgn, err := channel.NewAWGN(snrDB, rng)
	if err != nil {
		return nil, err
	}
	return channel.NewChain(mp, doppler, cfo, awgn)
}

// Render emits the Table V rows.
func (r *Table5Result) Render() *Table {
	t := NewTable(fmt.Sprintf("Table V — Averaged D²E vs Distance, Real Environment (%d samples/class)", r.Samples),
		"distance (m)", "ZigBee waveform", "Emulated waveform")
	for i, d := range r.Distances {
		t.AddRowf(d, r.Original[i], r.Emulated[i])
	}
	t.AddRow("suggested Q", fmt.Sprintf("%.4f", r.SuggestedQ), "")
	return t
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
