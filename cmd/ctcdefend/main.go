// Command ctcdefend demonstrates the waveform-emulation defenses: it
// receives one authentic and one emulated waveform over the configured
// channel and prints each one's detection statistics and verdict. -proto
// selects the victim PHY: zigbee (constellation cumulants + D²E, the
// default) or lora (dechirp off-peak energy ratio, the Wi-Lo defense).
// -stream n instead embeds n frames per class in one capture and
// classifies it through the streaming engine hideseekd serves.
//
// Usage:
//
//	ctcdefend [-proto zigbee|lora] [-payload text] [-snr dB] [-threshold q]
//	          [-real] [-stream n] [-in capture.cf32] [-seed n]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"hideseek/internal/channel"
	"hideseek/internal/emulation"
	"hideseek/internal/iq"
	"hideseek/internal/lora"
	"hideseek/internal/obs"
	"hideseek/internal/phy"
	"hideseek/internal/stream"
	"hideseek/internal/zigbee"

	_ "hideseek/internal/phy/loraphy"
	_ "hideseek/internal/phy/zigbeephy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ctcdefend:", err)
		os.Exit(1)
	}
}

func run() error {
	proto := flag.String("proto", "zigbee", "victim protocol: zigbee or lora")
	payload := flag.String("payload", "00000", "APP-layer payload")
	snr := flag.Float64("snr", 15, "AWGN SNR in dB")
	threshold := flag.Float64("threshold", 0, "decision threshold Q (0 = protocol default)")
	realEnv := flag.Bool("real", false, "add multipath, Doppler and CFO (real environment, Sec. VI-C)")
	streamN := flag.Int("stream", 0, "stream this many frames per class through the streaming engine (0 = single-shot)")
	in := flag.String("in", "", "classify a captured 4 MS/s waveform file (.cf32 or .csv) instead of generated ones")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	if *in != "" {
		return classifyFile(*in, *proto, *threshold, *realEnv)
	}
	var (
		observed   []complex128
		sampleRate float64
		err        error
	)
	switch *proto {
	case "zigbee":
		observed, err = zigbee.NewTransmitter().TransmitPSDU([]byte(*payload))
		sampleRate = zigbee.SampleRate
	case "lora":
		observed, err = lora.NewTransmitter().TransmitPayload([]byte(*payload))
		sampleRate = lora.SampleRate
	default:
		return fmt.Errorf("-proto %q not supported (registered: %v)", *proto, phy.Protocols())
	}
	if err != nil {
		return err
	}
	em, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		return err
	}
	res, err := em.Emulate(observed)
	if err != nil {
		return err
	}
	if *streamN > 0 {
		return runStream(*proto, observed, res.Emulated4M, *snr, *threshold, *realEnv, sampleRate, *streamN, *seed)
	}
	ch, err := buildChannel(*snr, *realEnv, sampleRate, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	if *proto == "lora" {
		return runLoRa(ch, observed, res.Emulated4M, *snr, *threshold, *realEnv)
	}
	return runZigBee(ch, observed, res.Emulated4M, *snr, *threshold, *realEnv)
}

// runZigBee classifies the authentic and the emulated O-QPSK waveform
// through the channel with the constellation-cumulant defense.
func runZigBee(ch channel.Channel, observed, emulated []complex128, snr, threshold float64, realEnv bool) error {
	rx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{SyncThreshold: zigbee.EdgeSyncThreshold})
	if err != nil {
		return err
	}
	det, err := emulation.NewDetector(emulation.DefenseConfig{
		Threshold:  threshold,
		RemoveMean: realEnv,
		UseAbsC40:  realEnv,
	})
	if err != nil {
		return err
	}
	analyze := func(name string, wave []complex128) error {
		rec, err := rx.Receive(ch.Apply(wave))
		if err != nil {
			fmt.Printf("%-9s reception failed: %v\n", name, err)
			return nil
		}
		v, err := det.AnalyzeReception(rec)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s Ĉ40 = %+.4f%+.4fi  Ĉ42 = %+.4f  D²E = %.4f  → %s\n",
			name, real(v.Cumulants.C40), imag(v.Cumulants.C40), v.Cumulants.C42, v.DistanceSquared, verdictLabel(v.Attack))
		return nil
	}
	fmt.Printf("channel: SNR %g dB, real environment: %v, Q = %g\n", snr, realEnv, det.Threshold())
	if err := analyze("authentic", observed); err != nil {
		return err
	}
	return analyze("emulated", emulated)
}

// runLoRa is the Wi-Lo demo: the authentic CSS frame and its
// WiFi-emulated counterpart through the channel, classified by the dechirp
// off-peak-energy defense.
func runLoRa(ch channel.Channel, observed, emulated []complex128, snr, threshold float64, realEnv bool) error {
	rx, err := lora.NewReceiver(lora.ReceiverConfig{})
	if err != nil {
		return err
	}
	det, err := lora.NewDetector(lora.DetectorConfig{Threshold: threshold, WidePeak: realEnv})
	if err != nil {
		return err
	}
	analyze := func(name string, wave []complex128) error {
		rec, err := rx.Receive(ch.Apply(wave))
		if err != nil {
			fmt.Printf("%-9s reception failed: %v\n", name, err)
			return nil
		}
		v, err := det.AnalyzeReception(rec)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s payload %q  symbols = %d  D² = %.4f  → %s\n",
			name, rec.Payload, v.Symbols, v.DistanceSquared, verdictLabel(v.Attack))
		return nil
	}
	fmt.Printf("lora channel: SNR %g dB, real environment: %v, Q = %g\n", snr, realEnv, det.Threshold())
	if err := analyze("authentic", observed); err != nil {
		return err
	}
	return analyze("emulated", emulated)
}

// verdictLabel names a verdict's hypothesis.
func verdictLabel(attack bool) string {
	if attack {
		return "ATTACK (H1)"
	}
	return "AUTHENTIC (H0)"
}

// streamCapture renders the streaming demo's input: frames authentic
// frames followed by frames emulated ones, each through its own channel
// realization, embedded in a noise-floor capture. The channel-applied
// waveforms are returned alongside so single-shot classification can run
// on exactly the same inputs (the parity test).
func streamCapture(observed, emulated []complex128, snr float64, realEnv bool, sampleRate float64, frames int, seed int64) ([][]complex128, []complex128, error) {
	rng := rand.New(rand.NewSource(seed))
	wfs := make([][]complex128, 0, 2*frames)
	for _, wave := range [][]complex128{observed, emulated} {
		for i := 0; i < frames; i++ {
			ch, err := buildChannel(snr, realEnv, sampleRate, rng)
			if err != nil {
				return nil, nil, err
			}
			wfs = append(wfs, ch.Apply(wave))
		}
	}
	capture, err := stream.BuildCapture(rng, 1e-3, 500, wfs...)
	if err != nil {
		return nil, nil, err
	}
	return wfs, capture, nil
}

// streamVerdicts classifies a capture through the streaming engine with
// the registry-built pipeline for proto — the same path hideseekd serves,
// where the calibration stage hooks in.
func streamVerdicts(proto string, capture []complex128, threshold float64, realEnv bool) ([]stream.Verdict, stream.Stats, error) {
	pipe, err := phy.Build(proto, pipelineOptions(proto, threshold, realEnv))
	if err != nil {
		return nil, stream.Stats{}, err
	}
	var verdicts []stream.Verdict
	stats, err := stream.Process(context.Background(), stream.Config{Pipelines: []*phy.Pipeline{pipe}},
		stream.NewSliceSource(capture), func(v stream.Verdict) {
			verdicts = append(verdicts, v)
		})
	return verdicts, stats, err
}

// runStream prints the engine's verdict stream for the demo capture: the
// first half of the frames is authentic, the second half emulated.
func runStream(proto string, observed, emulated []complex128, snr, threshold float64, realEnv bool, sampleRate float64, frames int, seed int64) error {
	_, capture, err := streamCapture(observed, emulated, snr, realEnv, sampleRate, frames, seed)
	if err != nil {
		return err
	}
	verdicts, stats, err := streamVerdicts(proto, capture, threshold, realEnv)
	if err != nil {
		return err
	}
	fmt.Printf("%s streaming engine: %d authentic frames, then %d emulated frames\n", proto, frames, frames)
	for i, v := range verdicts {
		if !v.Decided() {
			fmt.Printf("frame %2d @%d: not classified (%s)\n", i, v.Offset, v.Err)
			continue
		}
		fmt.Printf("frame %2d @%d: payload %q  D² = %.4f  → %s\n", i, v.Offset, v.PSDU, v.DistanceSquared, verdictLabel(v.Attack))
	}
	if stats.Frames == 0 {
		return fmt.Errorf("no decodable %s frame in the generated capture", proto)
	}
	writeLatencySummary(os.Stderr, stats, obs.Snap())
	return nil
}

// pipelineOptions is the CLI's streaming operating point for proto: the
// flags' defense threshold and channel variant, plus zigbee's sync
// threshold.
func pipelineOptions(proto string, threshold float64, realEnv bool) phy.Options {
	opts := phy.Options{Threshold: threshold, RealEnv: realEnv}
	if proto == "zigbee" {
		opts.SyncThreshold = zigbee.EdgeSyncThreshold
	}
	return opts
}

// buildChannel assembles the demo channel: AWGN, optionally preceded by
// the real-environment impairments (multipath, Doppler, CFO).
func buildChannel(snr float64, realEnv bool, sampleRate float64, rng *rand.Rand) (channel.Channel, error) {
	awgn, err := channel.NewAWGN(snr, rng)
	if err != nil {
		return nil, err
	}
	if !realEnv {
		return awgn, nil
	}
	mp, err := channel.NewRicianMultipath(3, 0.35, 8, rng)
	if err != nil {
		return nil, err
	}
	doppler, err := channel.NewDopplerPhaseNoise(2e-4, rng)
	if err != nil {
		return nil, err
	}
	cfo, err := channel.NewCFO(100, sampleRate, rng.Float64()*6.28)
	if err != nil {
		return nil, err
	}
	return channel.NewChain(mp, doppler, cfo, awgn)
}

// classifyFile runs the detector on a captured waveform (SDR interop).
// cf32 captures stream through the chunked pipeline — the file is never
// loaded whole, so arbitrarily long SDR recordings classify in bounded
// memory and every frame in the capture gets its own verdict line. CSV
// (a debug format with no incremental reader) still slurps.
func classifyFile(path, proto string, threshold float64, realEnv bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var src stream.Source
	if len(path) > 4 && path[len(path)-4:] == ".csv" {
		wave, err := iq.ReadCSV(f, 50_000_000)
		if err != nil {
			return err
		}
		src = stream.NewSliceSource(wave)
	} else {
		src = iq.NewReaderCF32(f)
	}
	pipe, err := phy.Build(proto, pipelineOptions(proto, threshold, realEnv))
	if err != nil {
		return fmt.Errorf("-proto: %w", err)
	}
	cfg := stream.Config{Pipelines: []*phy.Pipeline{pipe}}
	stats, err := stream.Process(context.Background(), cfg, src, func(v stream.Verdict) {
		if !v.Decided() {
			fmt.Printf("%s @%d: frame not classified (%s)\n", path, v.Offset, v.Err)
			return
		}
		verdict := verdictLabel(v.Attack)
		if v.Proto == "lora" {
			fmt.Printf("%s @%d: payload %q, D² = %.4f → %s\n",
				path, v.Offset, v.PSDU, v.DistanceSquared, verdict)
			return
		}
		fmt.Printf("%s @%d: PSDU %q, Ĉ40 = %+.4f%+.4fi, Ĉ42 = %+.4f, D²E = %.4f → %s\n",
			path, v.Offset, v.PSDU, v.C40Re, v.C40Im, v.C42, v.DistanceSquared, verdict)
	})
	if err != nil {
		return err
	}
	if stats.Frames == 0 {
		return fmt.Errorf("no decodable %s frame in %s (%d samples scanned)", proto, path, stats.Samples)
	}
	writeLatencySummary(os.Stderr, stats, obs.Snap())
	return nil
}

// writeLatencySummary prints the end-of-run per-stage latency digest for
// a capture classification: frame and drop counts from the session's
// Stats, p50/p95 scan/decode/detect latency from the process-wide
// instrument snapshot. It goes to stderr so piped verdict output stays
// machine-readable.
func writeLatencySummary(w io.Writer, stats stream.Stats, snap obs.Snapshot) {
	fmt.Fprintf(w, "-- latency summary: %d frames, %d dropped, %d decode errors, %d detect errors\n",
		stats.Frames, stats.Dropped, stats.DecodeErrors, stats.DetectErrors)
	for _, stage := range []struct{ label, hist string }{
		{"scan", "stream.scan_ns"},
		{"decode", "stream.decode_ns"},
		{"detect", "stream.detect_ns"},
	} {
		h, ok := snap.Histograms[stage.hist]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "--   %-6s p50 %-10s p95 %-10s (n=%d)\n",
			stage.label, fmtNS(h.P50), fmtNS(h.P95), h.Count)
	}
}

// fmtNS renders a nanosecond quantile as a human duration.
func fmtNS(ns float64) string {
	return time.Duration(ns).Round(100 * time.Nanosecond).String()
}
