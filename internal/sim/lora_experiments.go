package sim

import (
	"fmt"

	"hideseek/internal/emulation"
	"hideseek/internal/lora"
	"hideseek/internal/runner"
)

// buildLoRaLink transmits one payload on the LoRa PHY and runs the Wi-Lo
// attack on the observation: the authentic CSS waveform and its
// WiFi-emulated counterpart at the LoRa receiver's 4 MS/s clock.
func buildLoRaLink(payload []byte) (*Link, error) {
	original, err := lora.NewTransmitter().TransmitPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	em, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	res, err := emulation.ForgeLoRaPayload(em, payload)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Link{
		Payload:  payload,
		Original: padTail(original, 8),
		Emulated: padTail(res.Emulated4M, 8),
		Result:   res,
	}, nil
}

// loraVictim is the per-worker receive kit for the lora sweeps.
type loraVictim struct {
	rx  *lora.Receiver
	det *lora.Detector
}

func newLoRaVictim() (*loraVictim, error) {
	rx, err := lora.NewReceiver(lora.ReceiverConfig{})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	det, err := lora.NewDetector(lora.DetectorConfig{})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &loraVictim{rx: rx, det: det}, nil
}

// LoRaFidelityResult is the Wi-Lo analogue of Table II: per SNR, the
// fraction of authentic and emulated frames the unmodified LoRa receiver
// decodes bit-exactly, plus the mean defense statistic of each class.
type LoRaFidelityResult struct {
	SNRsDB   []float64
	AuthRate []float64 // authentic frames decoded bitwise
	EmulRate []float64 // emulated frames decoded bitwise (attack success)
	AuthD2   []float64 // mean off-peak ratio, authentic class
	EmulD2   []float64 // mean off-peak ratio, emulated class
	Trials   int
}

// LoRaFidelity sweeps AWGN SNR over one Wi-Lo link. Defaults: 0–20 dB in
// 5 dB steps, 50 trials per point.
func LoRaFidelity(cfg Config) (*LoRaFidelityResult, error) {
	snrsDB := cfg.SNRsOr(0, 5, 10, 15, 20)
	trials := cfg.TrialsOr(50)
	link, err := buildLoRaLink([]byte(fmt.Sprintf("%0*d", payloadWidth, 0)))
	if err != nil {
		return nil, err
	}
	// loraOutcome is one reception: whether the payload decoded bitwise,
	// and its defense statistic when the detector ran.
	type loraOutcome struct {
		decoded, analyzed bool
		d2                float64
	}
	k := twoClass[*loraVictim, loraOutcome]{links: []*Link{link}, victim: newLoRaVictim,
		measure: func(v *loraVictim, l *Link, rx []complex128) (loraOutcome, bool) {
			var o loraOutcome
			if rec, err := v.rx.Receive(rx); err == nil {
				o.decoded = string(rec.Payload) == string(l.Payload)
				if vd, err := v.det.AnalyzeReception(rec); err == nil {
					o.d2, o.analyzed = vd.DistanceSquared, true
				}
			}
			return o, true
		}}
	// rate is the decoded share of all trials; d2 the mean statistic of
	// the analyzed receptions.
	rate := func(outs []loraOutcome) float64 {
		n := 0
		for _, o := range outs {
			if o.decoded {
				n++
			}
		}
		return float64(n) / float64(trials)
	}
	d2 := func(outs []loraOutcome) float64 {
		var xs []float64
		for _, o := range outs {
			if o.analyzed {
				xs = append(xs, o.d2)
			}
		}
		return mean(xs)
	}
	res := &LoRaFidelityResult{SNRsDB: snrsDB, Trials: trials}
	for i, snr := range snrsDB {
		auth, emul, err := k.run(runner.Sweep{Seed: cfg.Seed, Base: sweepBase(regionLoRaFidelity, i)}, trials, awgnAt(snr))
		if err != nil {
			return nil, err
		}
		res.AuthRate = append(res.AuthRate, rate(auth))
		res.EmulRate = append(res.EmulRate, rate(emul))
		res.AuthD2 = append(res.AuthD2, d2(auth))
		res.EmulD2 = append(res.EmulD2, d2(emul))
	}
	return res, nil
}

// Render emits the fidelity rows.
func (r *LoRaFidelityResult) Render() *Table {
	t := NewTable(fmt.Sprintf("Wi-Lo — Emulated LoRa Frame Fidelity vs SNR (%d trials/point)", r.Trials),
		"SNR (dB)", "authentic decode", "emulated decode", "authentic D²", "emulated D²")
	for i, snr := range r.SNRsDB {
		t.AddRowf(snr, r.AuthRate[i], r.EmulRate[i], r.AuthD2[i], r.EmulD2[i])
	}
	return t
}

// LoRaROCResult wraps the generic ROC machinery for the LoRa off-peak
// detector at one operating SNR.
type LoRaROCResult struct {
	*ROCResult
}

// Render retitles the generic ROC table for the lora detector.
func (r *LoRaROCResult) Render() *Table {
	t := r.ROCResult.Render()
	t.Title = fmt.Sprintf("Wi-Lo ROC — Off-Peak-Ratio Detector (SNR %.0f dB, %d samples/class, AUC %.4f)",
		r.SNRdB, r.Samples, r.AUC)
	return t
}

// LoRaROC sweeps the off-peak-ratio threshold over D² samples of both
// classes at one SNR (default 10 dB — inside the regime where the
// authentic noise floor 1/(1+γ) approaches the clean-channel default
// threshold and the operating point actually matters).
func LoRaROC(cfg Config) (*LoRaROCResult, error) {
	snrDB := cfg.SNROr(10)
	trials := cfg.TrialsOr(100)
	link, err := buildLoRaLink([]byte(fmt.Sprintf("%0*d", payloadWidth, 0)))
	if err != nil {
		return nil, err
	}
	k := twoClass[*loraVictim, float64]{links: []*Link{link}, victim: newLoRaVictim,
		measure: func(v *loraVictim, _ *Link, rx []complex128) (float64, bool) {
			rec, err := v.rx.Receive(rx)
			if err != nil {
				return 0, false
			}
			vd, err := v.det.AnalyzeReception(rec)
			return vd.DistanceSquared, err == nil
		}}
	authentic, emulated, err := k.run(runner.Sweep{Seed: cfg.Seed, Base: sweepBase(regionLoRaROC, 0)}, trials, awgnAt(snrDB))
	if err != nil {
		return nil, err
	}
	roc, err := rocFromSamples(snrDB, authentic, emulated)
	if err != nil {
		return nil, err
	}
	return &LoRaROCResult{ROCResult: roc}, nil
}
