package emulation

import (
	"math/rand"
	"testing"

	"hideseek/internal/channel"
	"hideseek/internal/zigbee"
)

func TestCPRepetitionFailsAtVictimClock(t *testing.T) {
	// The paper's argument (Sec. VI-A-1): the victim cannot reliably see
	// the repetition. At the 4 MS/s ZigBee clock the prefix spans a
	// non-integer number of samples, and noise erases the remaining trace —
	// the scores of authentic and emulated waveforms overlap.
	rng := rand.New(rand.NewSource(131))
	obs := observeFrame(t, []byte("00000"))
	res := emulate(t, obs)
	ch, err := channel.NewAWGN(12, rng)
	if err != nil {
		t.Fatal(err)
	}
	authScores, err := DownsampledCPSegmentScores(ch.Apply(obs))
	if err != nil {
		t.Fatal(err)
	}
	emulScores, err := DownsampledCPSegmentScores(ch.Apply(res.Emulated4M))
	if err != nil {
		t.Fatal(err)
	}
	// Per-window decisions: count how often an authentic window outscores
	// the same-index emulated window. Reliable separation would make this
	// rare; the distributions must overlap heavily instead.
	n := len(authScores)
	if len(emulScores) < n {
		n = len(emulScores)
	}
	inverted := 0
	for i := 0; i < n; i++ {
		if authScores[i] >= emulScores[i] {
			inverted++
		}
	}
	// ≥ ~12% inversions already implies a per-window error rate no
	// threshold can fix.
	if inverted < n/8 {
		t.Errorf("per-window CP scores inverted in only %d/%d windows — baseline unexpectedly reliable", inverted, n)
	}
	if _, err := DownsampledCPSegmentScores(res.Emulated4M[:5]); err == nil {
		t.Error("accepted tiny waveform")
	}
}

func TestFrequencyProfileDistanceAmbiguousUnderNoise(t *testing.T) {
	// Fig. 9a: the OQPSK demodulation output cannot separate the classes —
	// at realistic SNR, channel noise alone moves the frequency profile of
	// an *authentic* waveform by a distance comparable to the emulation's,
	// so no threshold on this feature is reliable.
	rng := rand.New(rand.NewSource(132))
	obs := observeFrame(t, []byte("00000"))
	res := emulate(t, obs)
	n := len(res.Emulated4M)
	if n > len(obs) {
		n = len(obs)
	}
	dEmul, err := FrequencyProfileDistance(obs[:n], res.Emulated4M[:n])
	if err != nil {
		t.Fatal(err)
	}
	if dEmul == 0 {
		t.Error("distance exactly 0 — comparison is vacuous")
	}
	ch, err := channel.NewAWGN(9, rng)
	if err != nil {
		t.Fatal(err)
	}
	dNoise, err := FrequencyProfileDistance(obs[:n], ch.Apply(obs[:n]))
	if err != nil {
		t.Fatal(err)
	}
	if dNoise < dEmul/3 {
		t.Errorf("noise distance %g ≪ emulation distance %g — feature would separate classes, contradicting the paper's rejection", dNoise, dEmul)
	}
	if _, err := FrequencyProfileDistance(obs[:10], res.Emulated4M[:12]); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if _, err := FrequencyProfileDistance(obs[:1], res.Emulated4M[:1]); err == nil {
		t.Error("accepted single-sample input")
	}
	zeros := make([]complex128, 50)
	if _, err := FrequencyProfileDistance(zeros, zeros); err == nil {
		t.Error("accepted zero-frequency reference")
	}
}

func TestChipSequencesDifferButDecodeEqually(t *testing.T) {
	// Fig. 9b + Sec. VI-A-1: received chip sequences differ between the
	// classes, yet DSSS decodes both to the same symbols — so chip
	// sequences cannot serve as a defense.
	payload := []byte("00000")
	obs := observeFrame(t, payload)
	res := emulate(t, obs)
	rx, err := zigbee.NewReceiver(zigbee.ReceiverConfig{SyncThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	recA, err := rx.Receive(obs)
	if err != nil {
		t.Fatal(err)
	}
	recE, err := rx.Receive(res.Emulated4M)
	if err != nil {
		t.Fatal(err)
	}
	histA := ChipDistanceHistogramFromResults(recA.Results)
	histE := ChipDistanceHistogramFromResults(recE.Results)
	if len(histA) != 1 || histA[0] == 0 {
		t.Errorf("authentic histogram = %v, want all zeros", histA)
	}
	if histE[0] == len(recE.Results) {
		t.Error("emulated waveform produced no chip errors — footprint missing")
	}
	// Same decoded symbols nonetheless.
	if len(recA.Results) != len(recE.Results) {
		t.Fatalf("result lengths differ: %d vs %d", len(recA.Results), len(recE.Results))
	}
	for i := range recA.Results {
		if recA.Results[i].Symbol != recE.Results[i].Symbol {
			t.Fatalf("symbol %d decoded differently: %d vs %d", i, recA.Results[i].Symbol, recE.Results[i].Symbol)
		}
	}
}
