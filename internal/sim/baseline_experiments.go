package sim

import (
	"fmt"

	"hideseek/internal/channel"
	"hideseek/internal/dsp"
	"hideseek/internal/emulation"
	"hideseek/internal/zigbee"
)

// Fig8Result reproduces Fig. 8: the received I/Q waveforms at 17 dB for
// both classes, plus the cyclic-prefix repetition statistics that show why
// the CP baseline is unreliable at the victim.
type Fig8Result struct {
	SNRdB float64
	// Received I/Q traces (victim clock).
	OriginalI, OriginalQ []float64
	EmulatedI, EmulatedQ []float64
	// Per-window CP correlation score summaries at the victim's clock.
	OriginalCP, EmulatedCP emulation.SummarizeD2
}

// Fig8 applies AWGN at cfg's operating SNR (default 17 dB) and captures
// both the traces and CP statistics.
func Fig8(cfg Config) (*Fig8Result, error) {
	seed := cfg.Seed
	snrDB := cfg.SNROr(17)
	link, err := firstLink()
	if err != nil {
		return nil, err
	}
	rng := rngFor(seed, 8)
	ch, err := channel.NewAWGN(snrDB, rng)
	if err != nil {
		return nil, err
	}
	rxO := ch.Apply(link.Original)
	rxE := ch.Apply(link.Emulated)

	scoresO, err := emulation.DownsampledCPSegmentScores(rxO)
	if err != nil {
		return nil, fmt.Errorf("sim: fig8: %w", err)
	}
	scoresE, err := emulation.DownsampledCPSegmentScores(rxE)
	if err != nil {
		return nil, fmt.Errorf("sim: fig8: %w", err)
	}
	sumO, err := emulation.NewSummarizeD2(scoresO)
	if err != nil {
		return nil, err
	}
	sumE, err := emulation.NewSummarizeD2(scoresE)
	if err != nil {
		return nil, err
	}
	return &Fig8Result{
		SNRdB:      snrDB,
		OriginalI:  dsp.Real(rxO),
		OriginalQ:  dsp.Imag(rxO),
		EmulatedI:  dsp.Real(rxE),
		EmulatedQ:  dsp.Imag(rxE),
		OriginalCP: sumO,
		EmulatedCP: sumE,
	}, nil
}

// Render summarizes the CP-correlation overlap.
func (r *Fig8Result) Render() *Table {
	t := NewTable(fmt.Sprintf("Fig. 8 — Received Waveform & CP Repetition at %.0f dB", r.SNRdB),
		"class", "CP corr min", "CP corr median", "CP corr max")
	t.AddRowf("original", r.OriginalCP.Min, r.OriginalCP.Median, r.OriginalCP.Max)
	t.AddRowf("emulated", r.EmulatedCP.Min, r.EmulatedCP.Median, r.EmulatedCP.Max)
	return t
}

// Fig9Result reproduces Fig. 9: the OQPSK demodulation (instantaneous
// frequency) output and the hard chip amplitudes for both classes, with
// the decode outcome that shows the chip-sequence baseline failing.
type Fig9Result struct {
	// Frequency traces (rad/sample) at the victim clock.
	OriginalFreq, EmulatedFreq []float64
	// Relative distance between the two traces.
	ProfileDistance float64
	// Chip streams (hard ±1) for the first symbols.
	OriginalChips, EmulatedChips []float64
	// ChipsDiffer counts chip positions whose hard decisions differ.
	ChipsDiffer int
	// SymbolsAgree reports whether despreading yields identical symbols.
	SymbolsAgree bool
}

// Fig9 compares demodulation outputs on the noiseless waveforms (the paper
// uses high SNR to isolate the structural difference). The experiment is
// deterministic; cfg is accepted for API uniformity.
func Fig9(_ Config) (*Fig9Result, error) {
	link, err := firstLink()
	if err != nil {
		return nil, err
	}
	n := len(link.Emulated)
	if len(link.Original) < n {
		n = len(link.Original)
	}
	dist, err := emulation.FrequencyProfileDistance(link.Original[:n], link.Emulated[:n])
	if err != nil {
		return nil, fmt.Errorf("sim: fig9: %w", err)
	}

	v, err := newVictim(zigbee.HardThreshold, emulation.DefenseConfig{})
	if err != nil {
		return nil, err
	}
	recO, err := v.rx.Receive(link.Original)
	if err != nil {
		return nil, fmt.Errorf("sim: fig9: %w", err)
	}
	recE, err := v.rx.Receive(link.Emulated)
	if err != nil {
		return nil, fmt.Errorf("sim: fig9: %w", err)
	}
	differ := 0
	m := len(recO.SoftChips)
	if len(recE.SoftChips) < m {
		m = len(recE.SoftChips)
	}
	for i := 0; i < m; i++ {
		if (recO.SoftChips[i] >= 0) != (recE.SoftChips[i] >= 0) {
			differ++
		}
	}
	agree := len(recO.Results) == len(recE.Results)
	if agree {
		for i := range recO.Results {
			if recO.Results[i].Symbol != recE.Results[i].Symbol {
				agree = false
				break
			}
		}
	}
	return &Fig9Result{
		OriginalFreq:    zigbee.InstantaneousFrequency(link.Original[:n]),
		EmulatedFreq:    zigbee.InstantaneousFrequency(link.Emulated[:n]),
		ProfileDistance: dist,
		OriginalChips:   recO.SoftChips[:m],
		EmulatedChips:   recE.SoftChips[:m],
		ChipsDiffer:     differ,
		SymbolsAgree:    agree,
	}, nil
}

// Render summarizes why neither demod output nor chip sequences separate
// the classes.
func (r *Fig9Result) Render() *Table {
	t := NewTable("Fig. 9 — OQPSK Demod Output & Chip Sequences", "metric", "value")
	t.AddRowf("frequency profile relative distance", r.ProfileDistance)
	t.AddRowf("chip positions with different hard decisions", r.ChipsDiffer)
	t.AddRowf("total chips compared", len(r.OriginalChips))
	t.AddRowf("despread symbols identical", r.SymbolsAgree)
	return t
}
