package sim

import (
	"fmt"
	"math/rand"

	"hideseek/internal/channel"
	"hideseek/internal/dsp"
	"hideseek/internal/emulation"
	"hideseek/internal/runner"
	"hideseek/internal/wifi"
	"hideseek/internal/zigbee"
)

// Table1Result reproduces Table I: the FFT magnitudes of observed ZigBee
// waveform segments, the coarse highlights, and the selected indexes.
type Table1Result struct {
	Table    *emulation.FrequencyTable
	Segments int
}

// Table1 FFTs the first `segments` 4 µs slices of an observed ZigBee
// waveform and runs the two-step subcarrier selection on them. A nil
// payload, zero segment count, or zero threshold selects the paper setup
// ("000017", 6 segments, threshold 3).
func Table1(cfg Config, payload []byte, segments int, threshold float64) (*Table1Result, error) {
	if payload == nil {
		payload = []byte("000017")
	}
	if segments == 0 {
		segments = 6
	}
	if threshold == 0 {
		threshold = 3
	}
	if segments < 1 {
		return nil, fmt.Errorf("sim: need at least one segment")
	}
	tx := zigbee.NewTransmitter()
	obs, err := tx.TransmitPSDU(payload)
	if err != nil {
		return nil, fmt.Errorf("sim: table1: %w", err)
	}
	interp, err := dsp.NewInterpolator(emulation.Interpolation, 16)
	if err != nil {
		return nil, fmt.Errorf("sim: table1: %w", err)
	}
	up := interp.Process(obs)
	if len(up) < segments*wifi.SymbolSamples {
		return nil, fmt.Errorf("sim: waveform too short for %d segments", segments)
	}
	spectra := make([][]complex128, segments)
	for s := 0; s < segments; s++ {
		seg := up[s*wifi.SymbolSamples : (s+1)*wifi.SymbolSamples]
		spectra[s] = dsp.FFT(seg[wifi.CPLength:])
	}
	tbl, err := emulation.BuildFrequencyTable(spectra, threshold, emulation.DefaultKeptSubcarriers)
	if err != nil {
		return nil, fmt.Errorf("sim: table1: %w", err)
	}
	return &Table1Result{Table: tbl, Segments: segments}, nil
}

// Render emits the paper-style rows: bins 1–7 and 55–64 (1-based), one
// column per segment, with the selected rows marked.
func (r *Table1Result) Render() *Table {
	t := NewTable("Table I — Frequency Points of ZigBee Waveform (|X(k)|)")
	headers := []string{"Index (1-based)"}
	for s := 0; s < r.Segments; s++ {
		headers = append(headers, fmt.Sprintf("seg %d", s+1))
	}
	headers = append(headers, "selected")
	t.Headers = headers
	selected := map[int]bool{}
	for _, k := range r.Table.Selected {
		selected[k] = true
	}
	printRow := func(k int) {
		row := []string{fmt.Sprintf("%d", k+1)}
		for s := 0; s < r.Segments; s++ {
			mark := ""
			if r.Table.Highlighted[k][s] {
				mark = "*"
			}
			row = append(row, fmt.Sprintf("%.4f%s", r.Table.Magnitudes[k][s], mark))
		}
		if selected[k] {
			row = append(row, "✔")
		} else {
			row = append(row, "")
		}
		t.AddRow(row...)
	}
	for k := 0; k < 7; k++ {
		printRow(k)
	}
	for k := 54; k < 64; k++ {
		printRow(k)
	}
	return t
}

// Table2Result reproduces Table II: emulation attack success rate vs SNR.
type Table2Result struct {
	SNRsDB       []float64
	SuccessRates []float64
	Trials       int
}

// Table2 transmits the emulated waveform over AWGN at each SNR and counts
// full-frame decodes at the hard-threshold receiver. Defaults: the paper's
// 7–17 dB sweep at 1000 trials per point.
func Table2(cfg Config) (*Table2Result, error) {
	seed := cfg.Seed
	snrsDB := cfg.SNRsOr(7, 9, 11, 13, 15, 17)
	trials := cfg.TrialsOr(1000)
	if trials < 1 {
		return nil, fmt.Errorf("sim: trials %d < 1", trials)
	}
	link, err := firstLink()
	if err != nil {
		return nil, err
	}
	res := &Table2Result{SNRsDB: snrsDB, Trials: trials}
	for i, snr := range snrsDB {
		snr := snr
		// The paper's receiving test runs on the USRP receiver, whose GNU
		// Radio chain decodes from the FM discriminator (Sec. V-B).
		oks, err := runner.Map(pool(), runner.Sweep{Seed: seed, Base: sweepBase(regionTable2, i)}, trials,
			victimOf(zigbee.FMDiscriminator, emulation.DefenseConfig{}),
			func(t runner.Trial, v *victim) (bool, error) {
				ch, err := channel.NewAWGN(snr, t.RNG)
				if err != nil {
					return false, err
				}
				rec, err := v.rx.Receive(ch.Apply(link.Emulated))
				return err == nil && payloadMatches(rec, link.Payload), nil
			})
		if err != nil {
			return nil, err
		}
		ok := 0
		for _, hit := range oks {
			if hit {
				ok++
			}
		}
		res.SuccessRates = append(res.SuccessRates, float64(ok)/float64(trials))
	}
	return res, nil
}

// Render emits the Table II rows.
func (r *Table2Result) Render() *Table {
	t := NewTable(fmt.Sprintf("Table II — Emulation Attack Success Under AWGN (%d trials/SNR)", r.Trials),
		"SNR (dB)", "Success rate")
	for i, snr := range r.SNRsDB {
		t.AddRowf(snr, fmt.Sprintf("%.1f%%", 100*r.SuccessRates[i]))
	}
	return t
}

// Fig5Result reproduces Fig. 5: the original vs emulated I/Q waveforms for
// one ZigBee symbol (4 WiFi symbols) plus the tail NMSE.
type Fig5Result struct {
	OriginalI, OriginalQ []float64
	EmulatedI, EmulatedQ []float64
	TailNMSE             float64
}

// Fig5 emulates a single ZigBee symbol and extracts the 20 MS/s traces.
// The experiment is deterministic; cfg is accepted for API uniformity.
func Fig5(_ Config, symbol byte) (*Fig5Result, error) {
	wave, err := zigbee.SymbolWaveform(symbol)
	if err != nil {
		return nil, fmt.Errorf("sim: fig5: %w", err)
	}
	em, err := emulation.NewEmulator(emulation.AttackConfig{
		// One isolated symbol gives the estimator only 4 segments; pin the
		// default bins as the paper's simulation does (Sec. V-B-1).
		SubcarrierIndices: emulation.DefaultSubcarrierIndices,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: fig5: %w", err)
	}
	res, err := em.Emulate(wave)
	if err != nil {
		return nil, fmt.Errorf("sim: fig5: %w", err)
	}
	nmse, err := res.TailNMSE()
	if err != nil {
		return nil, fmt.Errorf("sim: fig5: %w", err)
	}
	return &Fig5Result{
		OriginalI: dsp.Real(res.Observed20M),
		OriginalQ: dsp.Imag(res.Observed20M),
		EmulatedI: dsp.Real(res.Emulated20M),
		EmulatedQ: dsp.Imag(res.Emulated20M),
		TailNMSE:  nmse,
	}, nil
}

// Render summarizes the traces (full series go to CSV).
func (r *Fig5Result) Render() *Table {
	t := NewTable("Fig. 5 — Emulated Waveform Fidelity", "metric", "value")
	t.AddRowf("samples per trace", len(r.OriginalI))
	t.AddRowf("tail NMSE (3.2 µs regions)", r.TailNMSE)
	return t
}

// SeriesCSV renders the four traces on a shared sample axis.
func (r *Fig5Result) SeriesCSV() (string, error) {
	mk := func(name string, y []float64) *Series {
		s := &Series{Name: name}
		for i, v := range y {
			s.Add(float64(i), v)
		}
		return s
	}
	return MergeSeriesCSV(
		mk("original_I", r.OriginalI),
		mk("emulated_I", r.EmulatedI),
		mk("original_Q", r.OriginalQ),
		mk("emulated_Q", r.EmulatedQ),
	)
}

// Fig7Result reproduces Fig. 7: Hamming-distance distribution of received
// chip sequences for both classes over the 100-packet workload.
type Fig7Result struct {
	Original *HammingHistogram
	Emulated *HammingHistogram
}

// HammingHistogram wraps per-distance rates.
type HammingHistogram struct {
	Counts map[int]int
	Total  int
}

// Rate returns the fraction of symbols at distance d.
func (h *HammingHistogram) Rate(d int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[d]) / float64(h.Total)
}

// Fig7 decodes all packets noiselessly and tallies per-symbol distances
// over cfg.Trials packets (default: the paper's 100-packet workload).
func Fig7(cfg Config) (*Fig7Result, error) {
	payloads, err := Payloads(cfg.TrialsOr(100))
	if err != nil {
		return nil, err
	}
	links, err := BuildLinks(payloads, emulation.AttackConfig{})
	if err != nil {
		return nil, err
	}
	// Chip distances are measured at the USRP (FM discriminator) receiver,
	// matching the paper's Fig. 7 setup, over a noiseless channel (an
	// empty chain) — one link per trial.
	k := twoClass[*victim, []int]{links: links, victim: victimOf(zigbee.FMDiscriminator, emulation.DefenseConfig{}),
		measure: func(v *victim, _ *Link, rx []complex128) ([]int, bool) {
			rec, err := v.rx.Receive(rx)
			if err != nil {
				return nil, false
			}
			var d []int
			for _, r := range rec.Results {
				d = append(d, r.Distance)
			}
			return d, true
		}}
	orig, emul, err := k.run(runner.Sweep{}, len(links), func(*rand.Rand) (channel.Channel, error) { return channel.NewChain() })
	if err != nil {
		return nil, err
	}
	if len(orig) != len(links) || len(emul) != len(links) {
		return nil, fmt.Errorf("sim: fig7: a noiseless link failed to decode")
	}
	res := &Fig7Result{
		Original: &HammingHistogram{Counts: map[int]int{}},
		Emulated: &HammingHistogram{Counts: map[int]int{}},
	}
	for i := range links {
		for _, dist := range orig[i] {
			res.Original.Counts[dist]++
			res.Original.Total++
		}
		for _, dist := range emul[i] {
			res.Emulated.Counts[dist]++
			res.Emulated.Total++
		}
	}
	return res, nil
}

// Render emits per-distance chip error rates for both classes.
func (r *Fig7Result) Render() *Table {
	t := NewTable("Fig. 7 — Hamming Distance Distribution",
		"Hamming distance", "original rate", "emulated rate")
	for d := 0; d <= zigbee.DefaultHammingThreshold; d++ {
		t.AddRowf(d, r.Original.Rate(d), r.Emulated.Rate(d))
	}
	return t
}
