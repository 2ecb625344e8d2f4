package zigbee

import (
	"fmt"
	"math/rand"
	"testing"

	"hideseek/internal/bits"
)

// TestDespreadPipelineMatchesLegacyAPI pins the receiver's in-place
// despreaders against the standalone reference despreaders on a clean
// golden frame: the receiver's Results must match what DespreadHard/
// DespreadSoft/DespreadDiscriminator produce from the receiver's own chip
// streams.
func TestDespreadPipelineMatchesLegacyAPI(t *testing.T) {
	golden, err := NewTransmitter().TransmitPSDU([]byte("golden"))
	if err != nil {
		t.Fatal(err)
	}
	capture := addAWGN(rand.New(rand.NewSource(9)), golden, 0.2)
	for _, tc := range despreadModes {
		rx, err := NewReceiver(ReceiverConfig{Mode: tc.mode, SyncThreshold: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := rx.Receive(capture)
		if err != nil {
			t.Fatalf("%s: golden frame: %v", tc.name, err)
		}
		checkAgainstReference(t, tc.name, tc.mode, DefaultHammingThreshold, rec)
	}
}

// TestDespreadParityNearThreshold runs the same reference check over a
// near-threshold noise sweep (40 seeds, noise 0.55–0.82), where chip
// errors hover around the Hamming drop threshold and soft correlations
// run nearly tied, so a tie-break or drop-rule divergence would surface.
// Each mode also runs at a tight Hamming threshold, since at the default
// one this sweep's hard-mode distances stay below it.
func TestDespreadParityNearThreshold(t *testing.T) {
	edge, err := NewTransmitter().TransmitPSDU([]byte("edge-despread"))
	if err != nil {
		t.Fatal(err)
	}
	var captures [][]complex128
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		captures = append(captures, addAWGN(rng, edge, 0.55+0.03*float64(seed%10)))
	}
	for _, tc := range despreadModes {
		decodes, drops := 0, 0
		for _, threshold := range []int{DefaultHammingThreshold, 4} {
			rx, err := NewReceiver(ReceiverConfig{Mode: tc.mode, HammingThreshold: threshold, SyncThreshold: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			for c, capture := range captures {
				// A frame with dropped symbols still returns its Results
				// alongside the error; compare those too.
				rec, _ := rx.Receive(capture)
				if rec == nil || len(rec.Results) == 0 {
					continue
				}
				decodes++
				tag := fmt.Sprintf("%s threshold %d capture %d", tc.name, threshold, c)
				drops += checkAgainstReference(t, tag, tc.mode, threshold, rec)
			}
		}
		if decodes == 0 {
			t.Errorf("%s: near-threshold sweep decoded nothing — not exercising the boundary", tc.name)
		}
		if tc.mode != SoftCorrelation && drops == 0 {
			t.Errorf("%s: no symbol crossed the drop threshold — not exercising the boundary", tc.name)
		}
		t.Logf("%s: %d sweep decodes, %d symbols dropped", tc.name, decodes, drops)
	}
}

var despreadModes = []struct {
	mode DespreadMode
	name string
}{
	{HardThreshold, "hard"}, {SoftCorrelation, "soft"}, {FMDiscriminator, "fm"},
}

// checkAgainstReference requires rec.Results to equal the reference
// despreader's output on rec's own chip streams and returns the number of
// dropped symbols.
func checkAgainstReference(t *testing.T, tag string, mode DespreadMode, threshold int, rec *Reception) int {
	t.Helper()
	var want []DespreadResult
	var err error
	switch mode {
	case HardThreshold:
		hard := make([]bits.Bit, len(rec.SoftChips))
		for i, v := range rec.SoftChips {
			if v >= 0 {
				hard[i] = 1
			}
		}
		want, err = DespreadHard(hard, threshold)
	case SoftCorrelation:
		want, err = DespreadSoft(rec.SoftChips)
	case FMDiscriminator:
		want, err = DespreadDiscriminator(rec.DiscriminatorChips, threshold)
	}
	if err != nil {
		t.Fatalf("%s: legacy despread: %v", tag, err)
	}
	if len(want) != len(rec.Results) {
		t.Fatalf("%s: %d results vs legacy %d", tag, len(rec.Results), len(want))
	}
	drops := 0
	for i := range want {
		if want[i] != rec.Results[i] {
			t.Errorf("%s: result %d: pipeline %+v vs legacy %+v", tag, i, rec.Results[i], want[i])
		}
		if want[i].Dropped {
			drops++
		}
	}
	return drops
}

// TestDespreadTieBreaksMatchReference crafts windows that sit exactly
// halfway between two codewords — equal Hamming distance, equal ±1
// correlation — plus an all-zero soft window that ties all 16, and
// requires the receiver's despreaders to break the ties as the
// references do: first codeword index wins.
func TestDespreadTieBreaksMatchReference(t *testing.T) {
	var soft []float64
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			d, err := bits.HammingDistance(chipTable[a][:], chipTable[b][:])
			if err != nil {
				t.Fatal(err)
			}
			if d%2 != 0 {
				continue
			}
			// Flip half the chips where a and b differ: the window is then
			// d/2 from both.
			window := chipTable[a]
			for i, flips := 0, 0; flips < d/2; i++ {
				if window[i] != chipTable[b][i] {
					window[i] ^= 1
					flips++
				}
			}
			for _, c := range window {
				soft = append(soft, 2*float64(c)-1)
			}
		}
	}
	soft = append(soft, make([]float64, ChipsPerSymbol)...)
	hard := make([]bits.Bit, len(soft))
	for i, v := range soft {
		if v >= 0 {
			hard[i] = 1
		}
	}
	rx, err := NewReceiver(ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]DespreadResult, len(soft)/ChipsPerSymbol)
	for _, tc := range []struct {
		name string
		run  func() error
		ref  func() ([]DespreadResult, error)
	}{
		{"hard", func() error { return rx.despreadHardInto(got, soft) },
			func() ([]DespreadResult, error) { return DespreadHard(hard, DefaultHammingThreshold) }},
		{"soft", func() error { return rx.despreadSoftInto(got, soft) },
			func() ([]DespreadResult, error) { return DespreadSoft(soft) }},
	} {
		if err := tc.run(); err != nil {
			t.Fatal(err)
		}
		want, err := tc.ref()
		if err != nil {
			t.Fatal(err)
		}
		for w := range want {
			if got[w] != want[w] {
				t.Errorf("%s window %d: receiver %+v vs reference %+v", tc.name, w, got[w], want[w])
			}
		}
	}
}
