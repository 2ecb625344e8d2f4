package zigbee

import (
	"math"
	"math/rand"
	"testing"
)

// recoverChips runs the loop into fresh buffers for numChips chips.
func recoverChips(c ClockRecovery, wave []complex128, numChips int) (*RecoveredChips, error) {
	r := &RecoveredChips{Soft: make([]float64, numChips), Timing: make([]float64, numChips/2)}
	return r, c.RecoverInto(r.Soft, r.Timing, wave)
}

// timingJitter is the standard deviation of a timing track: how far the
// loop wandered.
func timingJitter(timing []float64) float64 {
	var mean, ss float64
	for _, v := range timing {
		mean += v
	}
	mean /= float64(len(timing))
	for _, v := range timing {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss / float64(len(timing)))
}

func TestClockRecoveryValidation(t *testing.T) {
	good := DefaultClockRecovery()
	chips := randomChips(rand.New(rand.NewSource(1)), 64)
	wave, err := Modulate(chips)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recoverChips(ClockRecovery{Mu: 0, MaxOffset: 1}, wave, 64); err == nil {
		t.Error("accepted zero gain")
	}
	if _, err := recoverChips(ClockRecovery{Mu: 0.05, MaxOffset: 2}, wave, 64); err == nil {
		t.Error("accepted max offset ≥ half pulse")
	}
	if _, err := recoverChips(good, wave, 63); err == nil {
		t.Error("accepted odd chip count")
	}
	if _, err := recoverChips(good, wave[:16], 64); err == nil {
		t.Error("accepted short waveform")
	}
}

func TestClockRecoveryLocksOnCleanWaveform(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	chips := randomChips(rng, 256)
	wave, err := Modulate(chips)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := recoverChips(DefaultClockRecovery(), wave, len(chips))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Soft) != len(chips) {
		t.Fatalf("%d soft chips", len(rec.Soft))
	}
	// Chip decisions match, timing stays locked near zero.
	for i, c := range chips {
		hard := byte(0)
		if rec.Soft[i] >= 0 {
			hard = 1
		}
		if hard != c {
			t.Fatalf("chip %d flipped", i)
		}
	}
	if j := timingJitter(rec.Timing); j > 0.05 {
		t.Errorf("timing jitter on clean waveform = %g", j)
	}
	for _, tau := range rec.Timing {
		if math.Abs(tau) > 0.2 {
			t.Fatalf("timing estimate wandered to %g", tau)
		}
	}
}

func TestClockRecoveryPullsInStaticOffset(t *testing.T) {
	// Shift the waveform by one sample: the loop must walk its estimate
	// toward the true −1 sample offset and decode the tail correctly.
	rng := rand.New(rand.NewSource(142))
	chips := randomChips(rng, 512)
	wave, err := Modulate(chips)
	if err != nil {
		t.Fatal(err)
	}
	shifted := append(make([]complex128, 1), wave...)
	rec, err := recoverChips(DefaultClockRecovery(), shifted, len(chips))
	if err != nil {
		t.Fatal(err)
	}
	tail := rec.Timing[len(rec.Timing)-1]
	if math.Abs(tail-1) > 0.3 {
		t.Errorf("final timing estimate %g, want ≈ +1", tail)
	}
	errs := 0
	for i := len(chips) / 2; i < len(chips); i++ {
		hard := byte(0)
		if rec.Soft[i] >= 0 {
			hard = 1
		}
		if hard != chips[i] {
			errs++
		}
	}
	if errs > 4 {
		t.Errorf("%d chip errors in the pulled-in tail", errs)
	}
}

func TestPeakChipsMatchesModulatedAmplitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	chips := randomChips(rng, 128)
	wave, err := Modulate(chips)
	if err != nil {
		t.Fatal(err)
	}
	peaks, err := chipsInto(PeakChipsInto, wave, len(chips))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chips {
		want := -1.0
		if c == 1 {
			want = 1
		}
		if math.Abs(peaks[i]-want) > 1e-9 {
			t.Fatalf("chip %d peak = %g, want %g", i, peaks[i], want)
		}
	}
	if _, err := chipsInto(PeakChipsInto, wave, 3); err == nil {
		t.Error("accepted odd chip count")
	}
	if _, err := chipsInto(PeakChipsInto, wave[:4], 8); err == nil {
		t.Error("accepted short waveform")
	}
}

func TestDiscriminatorChipsConstantMagnitudeOnCleanWaveform(t *testing.T) {
	// Half-sine O-QPSK is MSK: the discriminator output is ±1 after
	// normalization for every chip.
	rng := rand.New(rand.NewSource(144))
	chips := randomChips(rng, 256)
	wave, err := Modulate(chips)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := chipsInto(DiscriminatorChipsInto, wave, len(chips))
	if err != nil {
		t.Fatal(err)
	}
	if len(disc) != len(chips) {
		t.Fatalf("%d discriminator chips", len(disc))
	}
	// Chip 0 is a burst-start transient: the I arm ramps up before the Q
	// arm exists, so there is no rotation to discriminate yet. Steady
	// state begins at chip 1.
	for i, v := range disc[1:] {
		if math.Abs(math.Abs(v)-1) > 0.02 {
			t.Fatalf("chip %d discriminator value %g, want ±1", i+1, v)
		}
	}
	if _, err := chipsInto(DiscriminatorChipsInto, wave, 0); err == nil {
		t.Error("accepted zero chips")
	}
	if _, err := chipsInto(DiscriminatorChipsInto, wave[:8], 64); err == nil {
		t.Error("accepted short waveform")
	}
}

func TestDiscriminatorChipsEncodeMSKDifferentially(t *testing.T) {
	// The discriminator stream is the MSK differential view of the chip
	// stream: its sign at chip k reflects the I/Q transition, not the raw
	// chip. Verify it is deterministic for a fixed chip pattern and that
	// flipping one transmitted chip flips at least one discriminator chip.
	chips := randomChips(rand.New(rand.NewSource(145)), 64)
	wave, err := Modulate(chips)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := chipsInto(DiscriminatorChipsInto, wave, len(chips))
	if err != nil {
		t.Fatal(err)
	}
	chips2 := append([]byte(nil), chips...)
	chips2[10] ^= 1
	wave2, err := Modulate(chips2)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := chipsInto(DiscriminatorChipsInto, wave2, len(chips2))
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range d1 {
		if (d1[i] >= 0) != (d2[i] >= 0) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("flipping a chip left the discriminator stream unchanged")
	}
}
