package emulation

import (
	"math/rand"
	"testing"

	"hideseek/internal/zigbee"
)

// Steady-state allocation guard for the detect path (DESIGN.md §15): the
// value-returning DetectChips/DetectReception entry points, and
// AnalyzeReception (what BenchmarkDetectorAnalyze times, its result
// kept on the caller's stack), must not allocate once the pooled
// constellation workspace has warmed, for both the plain and
// mean-removed (RemoveMean) configurations.
func TestDetectReceptionZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	chips := make([]float64, 512)
	for i := range chips {
		chips[i] = rng.NormFloat64()
	}
	rec := &zigbee.Reception{DiscriminatorChips: chips}
	for _, cfg := range []DefenseConfig{
		{},
		{RemoveMean: true, UseAbsC40: true},
	} {
		det, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // warm the pooled workspace
			if _, err := det.DetectReception(rec); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := det.DetectReception(rec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("cfg %+v: DetectReception allocates %v times per op, want 0", cfg, allocs)
		}
		allocs = testing.AllocsPerRun(50, func() {
			if _, err := det.AnalyzeReception(rec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("cfg %+v: AnalyzeReception allocates %v times per op, want 0", cfg, allocs)
		}
	}
}

// TestAnalyzePointsDoesNotMutateInput pins the wrapper contract: mean
// removal runs on a pooled copy, never on the caller's slice.
func TestAnalyzePointsDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := make([]complex128, 256)
	for i := range pts {
		pts[i] = complex(rng.NormFloat64()+0.5, rng.NormFloat64()-0.25)
	}
	orig := append([]complex128(nil), pts...)
	det, err := NewDetector(DefenseConfig{RemoveMean: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.AnalyzePoints(pts); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i] != orig[i] {
			t.Fatalf("AnalyzePoints mutated input at %d: %v -> %v", i, orig[i], pts[i])
		}
	}
}
