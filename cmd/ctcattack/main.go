// Command ctcattack runs the CTC waveform emulation attack end to end on a
// generated ZigBee frame: it transmits the frame on the simulated ZigBee
// PHY, emulates the observed waveform through the WiFi OFDM pipeline, and
// reports emulation fidelity plus the victim receiver's verdict.
//
// Usage:
//
//	ctcattack [-payload text] [-snr dB] [-receiver usrp|cc26x2r1|hard] [-oncarrier] [-csma duty] [-out file.cf32] [-seed n]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"hideseek/internal/channel"
	"hideseek/internal/emulation"
	"hideseek/internal/iq"
	"hideseek/internal/zigbee"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ctcattack:", err)
		os.Exit(1)
	}
}

func run() error {
	payload := flag.String("payload", "00000", "APP-layer payload the ZigBee gateway sends")
	snr := flag.Float64("snr", 17, "AWGN SNR in dB on the attacker→victim link")
	receiver := flag.String("receiver", "usrp", "victim receiver model: usrp, cc26x2r1, or hard")
	onCarrier := flag.Bool("oncarrier", false, "radiate from the 2440 MHz WiFi center (Sec. V-A-4) instead of baseband")
	csmaDuty := flag.Float64("csma", -1, "run CSMA/CA against a gateway with this duty cycle (0..1) before striking")
	out := flag.String("out", "", "write the emulated 20 MS/s waveform to this file (.cf32 or .csv) for SDR replay")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	mode, err := receiverMode(*receiver)
	if err != nil {
		return err
	}

	// Step 1 — channel listening: the gateway transmits, the attacker
	// records the waveform.
	tx := zigbee.NewTransmitter()
	observed, err := tx.TransmitPSDU([]byte(*payload))
	if err != nil {
		return err
	}
	fmt.Printf("observed ZigBee waveform: %d samples at 4 MS/s (payload %q)\n", len(observed), *payload)

	// Step 2 — waveform emulation.
	em, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		return err
	}
	res, err := em.Emulate(observed)
	if err != nil {
		return err
	}
	nmse, err := res.TailNMSE()
	if err != nil {
		return err
	}
	fmt.Printf("emulated: %d WiFi symbols, kept FFT bins %v, α = %.4f\n", res.NumSegments, res.Bins, res.Alphas[0])
	fmt.Printf("tail NMSE (3.2 µs regions): %.4f, total QAM quantization error: %.2f\n", nmse, res.QuantError)

	if *out != "" {
		if err := writeWaveform(*out, res.Emulated20M); err != nil {
			return err
		}
		fmt.Printf("emulated waveform written to %s (%d samples at 20 MS/s)\n", *out, len(res.Emulated20M))
	}

	victimInput := res.Emulated4M
	if *onCarrier {
		victimInput, err = emulation.ReceiveAtZigBee(emulation.OnCarrierWaveform(res.Emulated20M))
		if err != nil {
			return err
		}
		fmt.Println("radiating at 2440 MHz; victim front end mixes down from 2435 MHz")
	}

	rng := rand.New(rand.NewSource(*seed))

	// Step 2.5 — channel access (Sec. IV-B): the attacker confirms the
	// ZigBee devices are quiet before transmitting.
	if *csmaDuty >= 0 {
		if *csmaDuty > 1 {
			return fmt.Errorf("csma duty cycle %v outside [0, 1]", *csmaDuty)
		}
		medium := zigbee.PeriodicTraffic{PeriodUs: 5000, BusyUs: *csmaDuty * 5000}
		access, err := zigbee.PerformCSMA(zigbee.CSMAConfig{}, medium, 0, rng)
		if err != nil {
			return err
		}
		if !access.Success {
			fmt.Printf("CSMA/CA: channel busy after %d backoffs (%.0f µs) — strike aborted\n",
				access.Backoffs, access.DelayUs)
			return nil
		}
		fmt.Printf("CSMA/CA: channel clear after %.0f µs (%d backoffs)\n", access.DelayUs, access.Backoffs)
	}

	// Step 3 — victim reception over AWGN.
	ch, err := channel.NewAWGN(*snr, rng)
	if err != nil {
		return err
	}
	rx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{Mode: mode, SyncThreshold: zigbee.EdgeSyncThreshold})
	if err != nil {
		return err
	}
	rec, err := rx.Receive(ch.Apply(victimInput))
	if err != nil {
		fmt.Printf("victim (%s) at %g dB: frame REJECTED (%v)\n", *receiver, *snr, err)
		return nil
	}
	fmt.Printf("victim (%s) at %g dB: frame ACCEPTED, decoded PSDU %q\n", *receiver, *snr, rec.PSDU)
	hist := emulation.ChipDistanceHistogramFromResults(rec.Results)
	fmt.Printf("chip Hamming distances: %v\n", hist)
	if string(rec.PSDU) == *payload {
		fmt.Println("attack SUCCEEDED: the victim accepted the attacker's control message")
	} else {
		fmt.Println("attack FAILED: decoded payload differs")
	}
	return nil
}

// writeWaveform saves samples in the format implied by the extension.
func writeWaveform(path string, samples []complex128) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if len(path) > 4 && path[len(path)-4:] == ".csv" {
		return iq.WriteCSV(f, samples)
	}
	return iq.WriteCF32(f, samples)
}

func receiverMode(name string) (zigbee.DespreadMode, error) {
	switch name {
	case "usrp":
		return zigbee.FMDiscriminator, nil
	case "cc26x2r1":
		return zigbee.SoftCorrelation, nil
	case "hard":
		return zigbee.HardThreshold, nil
	default:
		return 0, fmt.Errorf("unknown receiver %q (want usrp, cc26x2r1, or hard)", name)
	}
}
