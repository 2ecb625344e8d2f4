package emulation

import (
	"encoding/binary"
	"math"
	"testing"

	"hideseek/internal/wifi"
)

// exhaustiveAlpha is the reference Eq. (4) search OptimizeAlpha must
// reproduce bit for bit: every coarse candidate, then every refine
// candidate, each scored over every point, first strict minimum wins.
func exhaustiveAlpha(c *wifi.Constellation, points []complex128, grid AlphaGrid) (alpha, totalErr float64) {
	eval := func(a float64) float64 { return c.QuantizeErrorSum(points, a) }
	best, bestErr := grid.Min, math.Inf(1)
	step := (grid.Max - grid.Min) / float64(grid.Steps-1)
	for i := 0; i < grid.Steps; i++ {
		a := grid.Min + float64(i)*step
		if e := eval(a); e < bestErr {
			best, bestErr = a, e
		}
	}
	lo := math.Max(grid.Min, best-step)
	hi := math.Min(grid.Max, best+step)
	fineStep := (hi - lo) / float64(grid.Steps-1)
	if fineStep > 0 {
		for i := 0; i < grid.Steps; i++ {
			a := lo + float64(i)*fineStep
			if e := eval(a); e < bestErr {
				best, bestErr = a, e
			}
		}
	}
	return best, bestErr
}

// decodeAlphaCase reads a fuzz input as one byte selecting the QAM order
// (4, 16, 64), one byte for Steps (2–50), the float64 bits of Min and Max,
// and then up to 64 points as float64 bit pairs. ok is false for inputs
// without a point or a grid with 0 < Min < Max.
func decodeAlphaCase(data []byte) (order wifi.QAMOrder, grid AlphaGrid, points []complex128, ok bool) {
	const head = 18
	if len(data) < head+16 {
		return 0, grid, nil, false
	}
	order = []wifi.QAMOrder{wifi.QAM4, wifi.QAM16, wifi.QAM64}[int(data[0])%3]
	grid.Steps = 2 + int(data[1])%49
	grid.Min = math.Float64frombits(binary.LittleEndian.Uint64(data[2:]))
	grid.Max = math.Float64frombits(binary.LittleEndian.Uint64(data[10:]))
	if !(0 < grid.Min && grid.Min < grid.Max) {
		return 0, grid, nil, false
	}
	for b := data[head:]; len(b) >= 16 && len(points) < 64; b = b[16:] {
		re := math.Float64frombits(binary.LittleEndian.Uint64(b))
		im := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		points = append(points, complex(re, im))
	}
	return order, grid, points, true
}

// FuzzOptimizeAlphaMatchesExhaustive holds OptimizeAlpha's pruned search
// (early abandon, seeded bound, pinned refine levels) to exhaustiveAlpha,
// bit for bit on both results. Plain `go test` runs the committed corpus
// in testdata/fuzz: non-finite, signed-zero, subnormal and ~2⁴⁰
// components, an all-NaN set, a single point, and points whose axis ratio
// crosses an even integer inside the refine interval or sits on one at
// its end.
func FuzzOptimizeAlphaMatchesExhaustive(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		order, grid, points, ok := decodeAlphaCase(data)
		if !ok {
			return
		}
		c, err := wifi.NewConstellation(order)
		if err != nil {
			t.Fatal(err)
		}
		alpha, totalErr, err := OptimizeAlpha(c, points, grid)
		if err != nil {
			t.Fatal(err)
		}
		wantAlpha, wantErr := exhaustiveAlpha(c, points, grid)
		if math.Float64bits(alpha) != math.Float64bits(wantAlpha) || math.Float64bits(totalErr) != math.Float64bits(wantErr) {
			t.Fatalf("QAM%d grid %+v, %d points: OptimizeAlpha = (%v, %v), exhaustive = (%v, %v)",
				order, grid, len(points), alpha, totalErr, wantAlpha, wantErr)
		}
	})
}
