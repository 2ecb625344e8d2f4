package hos

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// drawConstellation emits n random symbols of a named constellation with
// unit average power.
func drawConstellation(name string, n int, rng *rand.Rand) []complex128 {
	out := make([]complex128, n)
	switch name {
	case "BPSK":
		for i := range out {
			out[i] = complex(float64(2*rng.Intn(2)-1), 0)
		}
	case "QPSK":
		// Axis-aligned 4-PSK {1, j, −1, −j}: the rotation for which Table
		// III's C40 = +1 holds. The diamond variant (±1±j)/√2 has C40 = −1
		// (a 4·π/4 rotation), which is why the defense derotates by π/4.
		for i := range out {
			out[i] = cmplx.Rect(1, math.Pi/2*float64(rng.Intn(4)))
		}
	case "QPSK-diamond":
		s := math.Sqrt(0.5)
		for i := range out {
			out[i] = complex(float64(2*rng.Intn(2)-1)*s, float64(2*rng.Intn(2)-1)*s)
		}
	case "PSK8":
		for i := range out {
			out[i] = cmplx.Rect(1, 2*math.Pi*float64(rng.Intn(8))/8)
		}
	case "16-QAM":
		levels := []float64{-3, -1, 1, 3}
		norm := 1 / math.Sqrt(10)
		for i := range out {
			out[i] = complex(levels[rng.Intn(4)]*norm, levels[rng.Intn(4)]*norm)
		}
	case "64-QAM":
		norm := 1 / math.Sqrt(42)
		for i := range out {
			out[i] = complex(float64(2*rng.Intn(8)-7)*norm, float64(2*rng.Intn(8)-7)*norm)
		}
	default:
		panic("unknown constellation " + name)
	}
	return out
}

func TestEstimateValidation(t *testing.T) {
	if _, err := Estimate(nil); err == nil {
		t.Error("accepted empty input")
	}
	if _, err := Estimate(make([]complex128, 5)); err == nil {
		t.Error("accepted zero-power input")
	}
}

func TestEstimateMatchesTheoryNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const n = 200000
	tests := []struct {
		draw  string
		table string
	}{
		{draw: "BPSK", table: "BPSK"},
		{draw: "QPSK", table: "QPSK"},
		{draw: "PSK8", table: "PSK(>4)"},
		{draw: "16-QAM", table: "16-QAM"},
		{draw: "64-QAM", table: "64-QAM"},
	}
	for _, tt := range tests {
		t.Run(tt.draw, func(t *testing.T) {
			d := drawConstellation(tt.draw, n, rng)
			est, err := Estimate(d)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := LookupTheoretical(tt.table)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(real(est.C40)-ref.C40) > 0.05 || math.Abs(imag(est.C40)) > 0.05 {
				t.Errorf("C40 = %v, want %g", est.C40, ref.C40)
			}
			if math.Abs(est.C42-ref.C42) > 0.05 {
				t.Errorf("C42 = %g, want %g", est.C42, ref.C42)
			}
			if math.Abs(cmplx.Abs(est.C20)-math.Abs(ref.C20)) > 0.05 {
				t.Errorf("|C20| = %g, want %g", cmplx.Abs(est.C20), math.Abs(ref.C20))
			}
		})
	}
}

func TestDiamondQPSKHasNegatedC40(t *testing.T) {
	// Documents the rotation sensitivity: (±1±j)/√2 symbols give C40 = −1
	// while C42 stays at −1 and |C40| stays at 1.
	rng := rand.New(rand.NewSource(106))
	d := drawConstellation("QPSK-diamond", 200000, rng)
	est, err := Estimate(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(est.C40)+1) > 0.05 || math.Abs(imag(est.C40)) > 0.05 {
		t.Errorf("diamond C40 = %v, want −1", est.C40)
	}
	if math.Abs(est.C42+1) > 0.05 {
		t.Errorf("diamond C42 = %g, want −1", est.C42)
	}
}

func TestEstimateScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	d := drawConstellation("QPSK", 5000, rng)
	est1, err := Estimate(d)
	if err != nil {
		t.Fatal(err)
	}
	scaled := make([]complex128, len(d))
	for i, v := range d {
		scaled[i] = v * 7.3
	}
	est2, err := Estimate(scaled)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(est1.C40-est2.C40) > 1e-9 {
		t.Errorf("C40 not scale-invariant: %v vs %v", est1.C40, est2.C40)
	}
	if math.Abs(est1.C42-est2.C42) > 1e-9 {
		t.Errorf("C42 not scale-invariant: %g vs %g", est1.C42, est2.C42)
	}
	if math.Abs(est2.C21-est1.C21*7.3*7.3) > 1e-6 {
		t.Errorf("raw C21 should scale by 53.29: %g vs %g", est2.C21, est1.C21)
	}
}

func TestC40RotatesWithPhaseOffsetButAbsIsInvariant(t *testing.T) {
	// The Sec. VI-C fix: under a phase offset θ, C40 rotates by 4θ while
	// |C40| is unchanged.
	rng := rand.New(rand.NewSource(103))
	d := drawConstellation("QPSK", 100000, rng)
	theta := 0.3
	rot := make([]complex128, len(d))
	for i, v := range d {
		rot[i] = v * cmplx.Rect(1, theta)
	}
	est0, err := Estimate(d)
	if err != nil {
		t.Fatal(err)
	}
	estR, err := Estimate(rot)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmplx.Abs(estR.C40)-cmplx.Abs(est0.C40)) > 1e-9 {
		t.Errorf("|C40| changed under rotation: %g vs %g", cmplx.Abs(estR.C40), cmplx.Abs(est0.C40))
	}
	wantPhase := cmplx.Phase(est0.C40) + 4*theta
	gotPhase := cmplx.Phase(estR.C40)
	diff := math.Mod(gotPhase-wantPhase+3*math.Pi, 2*math.Pi) - math.Pi
	if math.Abs(diff) > 1e-9 {
		t.Errorf("C40 phase rotated by %g, want 4θ = %g", gotPhase-cmplx.Phase(est0.C40), 4*theta)
	}
	// Re(C40) is NOT invariant — exactly why plain C40 fails in the real
	// scenario.
	if math.Abs(real(estR.C40)-real(est0.C40)) < 0.1 {
		t.Errorf("Re(C40) barely moved (%g vs %g); rotation test is vacuous", real(estR.C40), real(est0.C40))
	}
}

func TestAWGNShrinksCumulantsPredictably(t *testing.T) {
	// For QPSK + complex Gaussian noise at SNR γ (linear), the normalized
	// C42 estimate tends to −1/(1+1/γ)² — noise adds to C21 but cancels in
	// the fourth-order cumulant. Check the 10 dB point.
	rng := rand.New(rand.NewSource(104))
	const n = 300000
	gamma := 10.0
	sigma := math.Sqrt(1 / gamma / 2)
	d := drawConstellation("QPSK", n, rng)
	for i := range d {
		d[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	est, err := Estimate(d)
	if err != nil {
		t.Fatal(err)
	}
	want := -1 / math.Pow(1+1/gamma, 2)
	if math.Abs(est.C42-want) > 0.03 {
		t.Errorf("C42 at 10 dB = %g, want ≈ %g", est.C42, want)
	}
}

func TestTheoreticalTableFromFirstPrinciples(t *testing.T) {
	// Re-derive Table III's QAM/PAM rows exactly from the constellation
	// definitions: for a unit-power constellation, C40 = E[x⁴] − 3E[x²]²,
	// C42 = E[|x|⁴] − |E[x²]|² − 2. Exact expectation over all points.
	exact := func(points []complex128) (c40, c42 float64) {
		var m2, m4 complex128
		var p4 float64
		var power float64
		for _, x := range points {
			m2 += x * x
			m4 += x * x * x * x
			a2 := real(x)*real(x) + imag(x)*imag(x)
			p4 += a2 * a2
			power += a2
		}
		n := float64(len(points))
		power /= n
		// Normalize to unit power.
		m2 /= complex(n*power, 0)
		m4 /= complex(n*power*power, 0)
		p4 /= n * power * power
		c40 = real(m4 - 3*m2*m2)
		c42 = p4 - real(m2)*real(m2) - imag(m2)*imag(m2) - 2
		return c40, c42
	}
	grid := func(levels []float64) []complex128 {
		var out []complex128
		for _, i := range levels {
			for _, q := range levels {
				out = append(out, complex(i, q))
			}
		}
		return out
	}
	pam := func(levels []float64) []complex128 {
		out := make([]complex128, len(levels))
		for i, l := range levels {
			out[i] = complex(l, 0)
		}
		return out
	}
	cases := []struct {
		name   string
		points []complex128
	}{
		{name: "16-QAM", points: grid([]float64{-3, -1, 1, 3})},
		{name: "64-QAM", points: grid([]float64{-7, -5, -3, -1, 1, 3, 5, 7})},
		{name: "256-QAM", points: grid([]float64{-15, -13, -11, -9, -7, -5, -3, -1, 1, 3, 5, 7, 9, 11, 13, 15})},
		{name: "4-PAM", points: pam([]float64{-3, -1, 1, 3})},
		{name: "8-PAM", points: pam([]float64{-7, -5, -3, -1, 1, 3, 5, 7})},
		{name: "BPSK", points: pam([]float64{-1, 1})},
		{name: "QPSK", points: []complex128{1, 1i, -1, -1i}},
	}
	for _, tc := range cases {
		row, err := LookupTheoretical(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		c40, c42 := exact(tc.points)
		if math.Abs(c40-row.C40) > 5e-4 {
			t.Errorf("%s: derived C40 %.4f vs table %.4f", tc.name, c40, row.C40)
		}
		if math.Abs(c42-row.C42) > 5e-4 {
			t.Errorf("%s: derived C42 %.4f vs table %.4f", tc.name, c42, row.C42)
		}
	}
}

func TestC41Behavior(t *testing.T) {
	// C41 = cum(x,x,x,x*) vanishes for every circularly-symmetric
	// constellation with quadrantal symmetry (QPSK, QAM) and equals −2 for
	// BPSK (x real ⇒ C41 = C40 = −2).
	rng := rand.New(rand.NewSource(109))
	qpsk := drawConstellation("QPSK", 200000, rng)
	est, err := Estimate(qpsk)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(est.C41) > 0.05 {
		t.Errorf("QPSK C41 = %v, want ≈ 0", est.C41)
	}
	qam := drawConstellation("64-QAM", 200000, rng)
	est, err = Estimate(qam)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(est.C41) > 0.05 {
		t.Errorf("64-QAM C41 = %v, want ≈ 0", est.C41)
	}
	bpsk := drawConstellation("BPSK", 200000, rng)
	est, err = Estimate(bpsk)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(est.C41)+2) > 0.05 || math.Abs(imag(est.C41)) > 0.05 {
		t.Errorf("BPSK C41 = %v, want −2", est.C41)
	}
}

func TestLookupTheoretical(t *testing.T) {
	row, err := LookupTheoretical("QPSK")
	if err != nil {
		t.Fatal(err)
	}
	if row.C40 != 1 || row.C42 != -1 {
		t.Errorf("QPSK row = %+v", row)
	}
	if _, err := LookupTheoretical("13-QAM"); err == nil {
		t.Error("accepted unknown name")
	}
	if len(TheoreticalTable) != 9 {
		t.Errorf("table has %d rows, want 9 (paper Table III)", len(TheoreticalTable))
	}
}

func TestFeatureDistance2(t *testing.T) {
	qpsk, err := LookupTheoretical("QPSK")
	if err != nil {
		t.Fatal(err)
	}
	est := Cumulants{C40: complex(1, 0), C42: -1}
	if d := FeatureDistance2(est, qpsk, false); d != 0 {
		t.Errorf("perfect QPSK distance = %g", d)
	}
	est2 := Cumulants{C40: complex(0.5, 0), C42: -0.5}
	if d := FeatureDistance2(est2, qpsk, false); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("distance = %g, want 0.5", d)
	}
	// abs-mode ignores the rotation of C40.
	rot := Cumulants{C40: cmplx.Rect(1, 1.0), C42: -1}
	if d := FeatureDistance2(rot, qpsk, true); d > 1e-12 {
		t.Errorf("abs-mode distance = %g, want 0", d)
	}
	if d := FeatureDistance2(rot, qpsk, false); d < 0.1 {
		t.Errorf("plain-mode distance = %g, should be large", d)
	}
}

func TestClassifyConstellation(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for _, tt := range []struct {
		draw string
		want string
	}{
		{draw: "QPSK", want: "QPSK"},
		{draw: "BPSK", want: "BPSK"},
		{draw: "64-QAM", want: "64-QAM"},
	} {
		d := drawConstellation(tt.draw, 100000, rng)
		est, err := Estimate(d)
		if err != nil {
			t.Fatal(err)
		}
		got := ClassifyConstellation(est, false)
		if got.Name != tt.want {
			t.Errorf("%s classified as %s", tt.draw, got.Name)
		}
	}
}
