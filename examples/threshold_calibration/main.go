// Threshold calibration reproduces the defense deployment procedure of
// Sec. VII-B: collect D²E on 50 training waveforms per class, derive the
// decision threshold Q, and validate it on 50 held-out waveforms per class
// across the attack-viable SNR range.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hideseek/internal/calib"
	"hideseek/internal/channel"
	"hideseek/internal/emulation"
	"hideseek/internal/zigbee"
)

func main() {
	const (
		train = 50
		test  = 50
	)
	snrs := []float64{11, 13, 15, 17}

	gateway := zigbee.NewTransmitter()
	observed, err := gateway.TransmitPSDU([]byte("00000"))
	if err != nil {
		log.Fatal(err)
	}
	attacker, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := attacker.Emulate(observed)
	if err != nil {
		log.Fatal(err)
	}
	rx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		log.Fatal(err)
	}
	det, err := emulation.NewDetector(emulation.DefenseConfig{})
	if err != nil {
		log.Fatal(err)
	}

	collect := func(seed int64, n int) (auth, emul []float64) {
		rng := rand.New(rand.NewSource(seed))
		for _, snr := range snrs {
			ch, err := channel.NewAWGN(snr, rng)
			if err != nil {
				log.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if recA, err := rx.Receive(ch.Apply(observed)); err == nil {
					if v, err := det.AnalyzeReception(recA); err == nil {
						auth = append(auth, v.DistanceSquared)
					}
				}
				if recE, err := rx.Receive(ch.Apply(res.Emulated4M)); err == nil {
					if v, err := det.AnalyzeReception(recE); err == nil {
						emul = append(emul, v.DistanceSquared)
					}
				}
			}
		}
		return auth, emul
	}

	// Training phase.
	trainAuth, trainEmul := collect(100, train/len(snrs))
	q, cost, err := calib.FitBoundary(trainAuth, trainEmul)
	if err != nil {
		log.Fatalf("calibration failed: %v", err)
	}
	if cost > 0 {
		log.Fatalf("calibration failed: classes overlap (fit cost %.4f)", cost)
	}
	fmt.Printf("training: %d authentic + %d emulated waveforms across SNR %v dB\n",
		len(trainAuth), len(trainEmul), snrs)
	fmt.Printf("calibrated threshold Q = %.4f (paper's pipeline lands on 0.5; Sec. VII-C-4)\n\n", q)

	// Held-out evaluation.
	testAuth, testEmul := collect(200, test/len(snrs))
	var stats emulation.DetectionStats
	for _, d2 := range testAuth {
		stats.Score(false, d2 > q)
	}
	for _, d2 := range testEmul {
		stats.Score(true, d2 > q)
	}
	sumA, err := emulation.NewSummarizeD2(testAuth)
	if err != nil {
		log.Fatal(err)
	}
	sumE, err := emulation.NewSummarizeD2(testEmul)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("held-out authentic D²E: min %.4f  mean %.4f  max %.4f\n", sumA.Min, sumA.Mean, sumA.Max)
	fmt.Printf("held-out emulated  D²E: min %.4f  mean %.4f  max %.4f\n", sumE.Min, sumE.Mean, sumE.Max)
	fmt.Printf("decisions: TP %d  FN %d  TN %d  FP %d → accuracy %.1f%%\n",
		stats.TruePositives, stats.FalseNegatives, stats.TrueNegatives, stats.FalsePositives,
		100*stats.Accuracy())
}
