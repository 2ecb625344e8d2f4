package hos

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestKMeansValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	samples := []complex128{1, 2, 3, 4}
	if _, err := KMeans(samples, 0, 10, rng); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := KMeans(samples, 5, 10, rng); err == nil {
		t.Error("accepted k > len(samples)")
	}
	if _, err := KMeans(samples, 2, 0, rng); err == nil {
		t.Error("accepted maxIter=0")
	}
	if _, err := KMeans(samples, 2, 10, nil); err == nil {
		t.Error("accepted nil rng")
	}
}

func TestKMeansRecoversQPSKClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	truth := []complex128{1 + 1i, 1 - 1i, -1 + 1i, -1 - 1i}
	var samples []complex128
	for _, c := range truth {
		for i := 0; i < 250; i++ {
			samples = append(samples, c+complex(rng.NormFloat64()*0.15, rng.NormFloat64()*0.15))
		}
	}
	res, err := KMeans(samples, 4, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 4 {
		t.Fatalf("%d centers", len(res.Centers))
	}
	// Each true center must have a recovered center within 0.1.
	for _, want := range truth {
		best := math.Inf(1)
		for _, got := range res.Centers {
			if d := cmplx.Abs(got - want); d < best {
				best = d
			}
		}
		if best > 0.1 {
			t.Errorf("no center near %v (closest %g away)", want, best)
		}
	}
	if res.WithinSS/float64(len(samples)) > 0.06 {
		t.Errorf("WSS per sample = %g, too high", res.WithinSS/float64(len(samples)))
	}
	if res.Iterations < 1 {
		t.Error("no iterations recorded")
	}
}

func TestKMeansAssignmentConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	samples := make([]complex128, 200)
	for i := range samples {
		samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	res, err := KMeans(samples, 3, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != len(samples) {
		t.Fatalf("assignment length %d", len(res.Assignment))
	}
	// Every sample must be assigned to its nearest center.
	for i, s := range samples {
		a := res.Assignment[i]
		da := sqDist(s, res.Centers[a])
		for c := range res.Centers {
			if sqDist(s, res.Centers[c]) < da-1e-12 {
				t.Fatalf("sample %d assigned to %d but %d is closer", i, a, c)
			}
		}
	}
}

func TestKMeansDegenerateIdenticalSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	samples := make([]complex128, 10)
	for i := range samples {
		samples[i] = 2 + 3i
	}
	res, err := KMeans(samples, 2, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithinSS > 1e-12 {
		t.Errorf("WSS = %g for identical samples", res.WithinSS)
	}
}
