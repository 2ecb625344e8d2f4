package wifi

import (
	"math"
	"testing"
)

// quantizeEdges are the float64 inputs where the closed-form level choice
// is easiest to get wrong: signed zeros, subnormals, the tiny-|x| band
// where 1−|x| and 1+|x| round alike, the fast path's range limits, every
// even integer in and around the 64-QAM table (exact ties) with its one-ulp
// neighbours, and the non-finite values.
func quantizeEdges() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		0x1p-60, 0x1p-54, 0x1p-53, 0x1p-52, 0x1p-50, math.Nextafter(0x1p-50, 0),
		0x1p40, math.Nextafter(0x1p40, 0), 0x1p52, 0x1p53, 0x1p60, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		0.5, 1, 1.5, 2.5, 6.5, 7, 7.5, 100,
	}
	for k := 0; k <= 10; k += 2 {
		e := float64(k)
		xs = append(xs, e, math.Nextafter(e, math.Inf(1)), math.Nextafter(e, math.Inf(-1)))
	}
	out := make([]float64, 0, 2*len(xs))
	for _, x := range xs {
		out = append(out, x, -x)
	}
	return out
}

// FuzzQuantizeMatchesScan checks, for arbitrary float64 bit patterns and
// every QAM order, that the level Quantize picks equals the reference table
// scan bit for bit, that QuantizeErrorSum equals a loop over Quantize, and
// that QuantizeErrorSumBelow agrees with that loop on every bound.
// Plain `go test` runs it over quantizeEdges and the committed corpus in
// testdata/fuzz; `go test -fuzz FuzzQuantizeMatchesScan` explores further.
func FuzzQuantizeMatchesScan(f *testing.F) {
	for _, x := range quantizeEdges() {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		checkLevelsMatchScan(t, math.Float64frombits(u))
	})
}

func checkLevelsMatchScan(t *testing.T, x float64) {
	t.Helper()
	for _, order := range []QAMOrder{QAM4, QAM16, QAM64} {
		c, err := NewConstellation(order)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _ := c.levelsAt(complex(x, 0.75), 1) // x/1 == x
		if want := scanLevels(x, c.levels); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("QAM%d: level(%v [%#016x]) = %v, scan = %v", order, x, math.Float64bits(x), got, want)
		}
		pts := []complex128{complex(x, 0.75), complex(-2.5, x), complex(x, x)}
		for _, alpha := range []float64{1, 0.3, 5.1, 0} {
			var loop float64
			for _, v := range pts {
				_, e := c.Quantize(v, alpha)
				loop += e
			}
			if sum := c.QuantizeErrorSum(pts, alpha); math.Float64bits(sum) != math.Float64bits(loop) {
				t.Fatalf("QAM%d: QuantizeErrorSum(α=%v) at x=%v = %v, Quantize loop = %v", order, alpha, x, sum, loop)
			}
			for _, bound := range []float64{loop, math.Nextafter(loop, math.Inf(1)), math.Inf(1)} {
				below := c.QuantizeErrorSumBelow(pts, nil, alpha, bound)
				if (below < bound) != (loop < bound) || loop < bound && math.Float64bits(below) != math.Float64bits(loop) {
					t.Fatalf("QAM%d: QuantizeErrorSumBelow(α=%v, bound=%v) at x=%v = %v, Quantize loop = %v", order, alpha, bound, x, below, loop)
				}
			}
		}
	}
}
