// Command spectrum computes a Welch power spectral density. The input is
// either a cf32/CSV waveform file (GNU Radio interop via internal/iq) or a
// generated waveform (-gen zigbee|emulated). Output is a frequency,power
// CSV on stdout plus a band-occupancy summary on stderr.
//
// Usage:
//
//	spectrum -gen emulated -rate 4e6 > psd.csv
//	spectrum -in capture.cf32 -rate 4e6 -segment 512 > psd.csv
//
// -segment must be a power of two; any other length is an error.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"hideseek/internal/dsp"
	"hideseek/internal/emulation"
	"hideseek/internal/iq"
	"hideseek/internal/zigbee"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spectrum:", err)
		os.Exit(1)
	}
}

func run() error {
	in := flag.String("in", "", "input waveform file (.cf32 or .csv)")
	gen := flag.String("gen", "", "generate a waveform instead: zigbee or emulated")
	payload := flag.String("payload", "0000000017", "payload for generated waveforms")
	rate := flag.Float64("rate", zigbee.SampleRate, "sample rate in Hz")
	segment := flag.Int("segment", 256, "Welch segment length (a power of two)")
	flag.Parse()

	wave, err := loadWaveform(*in, *gen, *payload)
	if err != nil {
		return err
	}
	psd, err := dsp.WelchPSD(wave, *segment, dsp.Hann)
	if err != nil {
		return err
	}

	// CSV sorted by signed frequency.
	type binRow struct {
		f float64
		p float64
	}
	rows := make([]binRow, len(psd))
	for k, p := range psd {
		f, err := dsp.BinFrequency(k, len(psd), *rate)
		if err != nil {
			return err
		}
		rows[k] = binRow{f: f, p: p}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].f < rows[b].f })
	fmt.Println("frequency_hz,power")
	for _, r := range rows {
		fmt.Printf("%g,%g\n", r.f, r.p)
	}

	bw99, err := dsp.OccupiedBandwidth(psd, *rate, 0.99)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "samples: %d, 99%% occupied bandwidth: %.3f MHz\n", len(wave), bw99/1e6)
	return nil
}

func loadWaveform(path, gen, payload string) ([]complex128, error) {
	switch {
	case path != "" && gen != "":
		return nil, fmt.Errorf("-in and -gen are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		const limit = 50_000_000
		if len(path) > 4 && path[len(path)-4:] == ".csv" {
			return iq.ReadCSV(f, limit)
		}
		return iq.ReadCF32(f, limit)
	case gen == "zigbee":
		return zigbee.NewTransmitter().TransmitPSDU([]byte(payload))
	case gen == "emulated":
		obs, err := zigbee.NewTransmitter().TransmitPSDU([]byte(payload))
		if err != nil {
			return nil, err
		}
		em, err := emulation.NewEmulator(emulation.AttackConfig{})
		if err != nil {
			return nil, err
		}
		res, err := em.Emulate(obs)
		if err != nil {
			return nil, err
		}
		return res.Emulated4M, nil
	default:
		return nil, fmt.Errorf("provide -in FILE or -gen zigbee|emulated")
	}
}
