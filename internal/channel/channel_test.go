package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"hideseek/internal/dsp"
)

func unitTone(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*0.05*float64(i))
	}
	return x
}

func TestAWGNValidation(t *testing.T) {
	if _, err := NewAWGN(10, nil); err == nil {
		t.Error("accepted nil rng")
	}
}

func TestAWGNNoisePowerMatchesSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, snr := range []float64{0, 7, 17} {
		ch, err := NewAWGN(snr, rng)
		if err != nil {
			t.Fatal(err)
		}
		wantNoise := dsp.FromDB(-snr)
		if math.Abs(ch.NoisePower()-wantNoise)/wantNoise > 1e-12 {
			t.Errorf("SNR %g: NoisePower = %g, want %g", snr, ch.NoisePower(), wantNoise)
		}
		x := unitTone(50000)
		y := ch.Apply(x)
		diff := make([]complex128, len(x))
		for i := range x {
			diff[i] = y[i] - x[i]
		}
		measured := dsp.Power(diff)
		if math.Abs(measured-wantNoise)/wantNoise > 0.05 {
			t.Errorf("SNR %g: measured noise power %g, want %g", snr, measured, wantNoise)
		}
	}
}

func TestAWGNDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	ch, err := NewAWGN(10, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := unitTone(16)
	orig := append([]complex128(nil), x...)
	_ = ch.Apply(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("input mutated")
		}
	}
}

func TestCFOValidationAndRotation(t *testing.T) {
	if _, err := NewCFO(1e6, 0, 0); err == nil {
		t.Error("accepted zero sample rate")
	}
	if _, err := NewCFO(3e6, 4e6, 0); err == nil {
		t.Error("accepted super-Nyquist offset")
	}
	ch, err := NewCFO(100e3, 4e6, math.Pi/4)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 10)
	for i := range x {
		x[i] = 1
	}
	y := ch.Apply(x)
	for i := range y {
		want := cmplx.Rect(1, math.Pi/4+2*math.Pi*100e3/4e6*float64(i))
		if cmplx.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("sample %d: %v, want %v", i, y[i], want)
		}
	}
}

func TestCFOPreservesPower(t *testing.T) {
	ch, err := NewCFO(250e3, 4e6, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	x := unitTone(1000)
	y := ch.Apply(x)
	if math.Abs(dsp.Power(y)-dsp.Power(x)) > 1e-12 {
		t.Error("CFO changed signal power")
	}
}

func TestGainAndChain(t *testing.T) {
	g := NewGain(2i)
	x := []complex128{1, 1i}
	y := g.Apply(x)
	if y[0] != 2i || y[1] != -2 {
		t.Errorf("Gain = %v", y)
	}

	if _, err := NewChain(g, nil); err == nil {
		t.Error("accepted nil stage")
	}
	chain, err := NewChain(NewGain(2), NewGain(3))
	if err != nil {
		t.Fatal(err)
	}
	z := chain.Apply(x)
	if z[0] != 6 || z[1] != 6i {
		t.Errorf("Chain = %v", z)
	}

	empty, err := NewChain()
	if err != nil {
		t.Fatal(err)
	}
	w := empty.Apply(x)
	if w[0] != x[0] || w[1] != x[1] {
		t.Error("empty chain should copy input")
	}
	w[0] = 99
	if x[0] == 99 {
		t.Error("empty chain aliased input")
	}
}

func TestRSSI(t *testing.T) {
	x := unitTone(100)
	if got := RSSI(x); math.Abs(got) > 1e-9 {
		t.Errorf("unit power RSSI = %g dB, want 0", got)
	}
	half := dsp.Scale(x, complex(math.Sqrt(0.5), 0))
	if got := RSSI(half); math.Abs(got+3.0103) > 0.01 {
		t.Errorf("half power RSSI = %g dB, want ≈ −3", got)
	}
}

func TestPathLossModel(t *testing.T) {
	m := DefaultIndoorPathLoss()
	if _, err := m.LossDB(0); err == nil {
		t.Error("accepted zero distance")
	}
	bad := m
	bad.RefDistance = 0
	if _, err := bad.LossDB(1); err == nil {
		t.Error("accepted zero reference distance")
	}
	l1, err := m.LossDB(1)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != m.RefLossDB {
		t.Errorf("loss at d0 = %g, want %g", l1, m.RefLossDB)
	}
	l2, err := m.LossDB(2)
	if err != nil {
		t.Fatal(err)
	}
	wantDelta := 10 * m.Exponent * math.Log10(2)
	if math.Abs(l2-l1-wantDelta) > 1e-12 {
		t.Errorf("doubling distance added %g dB, want %g", l2-l1, wantDelta)
	}
}

func TestRayleighRicianStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	const n = 50000
	var p float64
	for i := 0; i < n; i++ {
		h := RayleighGain(rng)
		p += real(h)*real(h) + imag(h)*imag(h)
	}
	p /= n
	if math.Abs(p-1) > 0.03 {
		t.Errorf("Rayleigh mean power = %g, want 1", p)
	}

	var pr float64
	for i := 0; i < n; i++ {
		h := RicianGain(5, rng)
		pr += real(h)*real(h) + imag(h)*imag(h)
	}
	pr /= n
	if math.Abs(pr-1) > 0.03 {
		t.Errorf("Rician mean power = %g, want 1", pr)
	}

	// High-K Rician magnitude concentrates near 1.
	var minMag, maxMag = math.Inf(1), 0.0
	for i := 0; i < 1000; i++ {
		mag := cmplx.Abs(RicianGain(1000, rng))
		minMag = math.Min(minMag, mag)
		maxMag = math.Max(maxMag, mag)
	}
	if minMag < 0.85 || maxMag > 1.15 {
		t.Errorf("K=1000 Rician magnitudes spread [%g, %g]", minMag, maxMag)
	}
	// Negative K treated as Rayleigh (no panic, unit power).
	_ = RicianGain(-2, rng)
}

func TestMultipathValidationAndNormalization(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	if _, err := NewRicianMultipath(0, 0.5, 0, rng); err == nil {
		t.Error("accepted 0 taps")
	}
	if _, err := NewRicianMultipath(3, 0, 0, rng); err == nil {
		t.Error("accepted decay 0")
	}
	if _, err := NewRicianMultipath(3, 1.5, 0, rng); err == nil {
		t.Error("accepted decay > 1")
	}
	if _, err := NewRicianMultipath(3, 0.5, 0, nil); err == nil {
		t.Error("accepted nil rng")
	}
	mp, err := NewRicianMultipath(4, 0.5, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	var p float64
	for _, tap := range mp.Taps() {
		p += real(tap)*real(tap) + imag(tap)*imag(tap)
	}
	if math.Abs(p-1) > 1e-9 {
		t.Errorf("tap power = %g, want 1", p)
	}
}

func TestMultipathSingleTapIsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	mp, err := NewRicianMultipath(1, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := unitTone(64)
	y := mp.Apply(x)
	h := mp.Taps()[0]
	for i := range x {
		if cmplx.Abs(y[i]-x[i]*h) > 1e-12 {
			t.Fatalf("sample %d not flat-scaled", i)
		}
	}
}

func TestMultipathPreservesLength(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	mp, err := NewRicianMultipath(6, 0.6, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := unitTone(100)
	y := mp.Apply(x)
	if len(y) != len(x) {
		t.Errorf("output length %d != input %d", len(y), len(x))
	}
}

func TestDopplerPhaseNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	if _, err := NewDopplerPhaseNoise(-1, rng); err == nil {
		t.Error("accepted negative sigma")
	}
	if _, err := NewDopplerPhaseNoise(1e-4, nil); err == nil {
		t.Error("accepted nil rng")
	}
	ch, err := NewDopplerPhaseNoise(1e-3, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := unitTone(5000)
	y := ch.Apply(x)
	// Pure phase rotation: power preserved sample by sample.
	for i := range x {
		if math.Abs(cmplx.Abs(y[i])-cmplx.Abs(x[i])) > 1e-12 {
			t.Fatalf("sample %d magnitude changed", i)
		}
	}
	// Phase must actually drift over a long window.
	drift := cmplx.Abs(y[len(y)-1]/x[len(x)-1] - 1)
	if drift < 1e-3 {
		t.Errorf("no visible phase drift (%g)", drift)
	}
}
