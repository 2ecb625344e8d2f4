// Package hos implements the higher-order statistics used by the defense:
// second-order moments C20/C21 and fourth-order cumulants C40/C41/C42 with
// their sample estimators (paper Eqs. 5–9), the theoretical cumulant table
// for common constellations (Table III), a Euclidean/Voronoi constellation
// classifier, and k-means clustering for constellation visualization.
package hos

import (
	"fmt"
	"math/cmplx"
)

// Cumulants bundles the normalized sample estimates of the statistics the
// defense consumes. Normalization divides the fourth-order cumulants by
// C21², making them scale-invariant.
type Cumulants struct {
	C20 complex128 // E[x²] / C21 (normalized second moment)
	C21 float64    // E[|x|²] (raw power — kept for diagnostics)
	C40 complex128 // cum(x,x,x,x) / C21²
	C41 complex128 // cum(x,x,x,x*) / C21²
	C42 float64    // cum(x,x,x*,x*) / C21² (real by construction)
}

// Estimate computes the sample cumulants of d per the paper's Eqs. (8)–(9):
//
//	C̃20 = 1/D Σ d²        C̃21 = 1/D Σ |d|²
//	C̃40 = 1/D Σ d⁴ − 3·C̃20²
//	C̃41 = 1/D Σ d³d* − 3·C̃20·C̃21
//	C̃42 = 1/D Σ |d|⁴ − |C̃20|² − 2·C̃21²
//
// followed by Ĉ4q = C̃4q / C̃21². The samples are assumed zero-mean (true
// for every constellation considered here).
func Estimate(d []complex128) (Cumulants, error) {
	raw, err := estimateRaw(d)
	if err != nil {
		return Cumulants{}, err
	}
	norm := complex(raw.c21*raw.c21, 0)
	return Cumulants{
		C20: raw.c20 / complex(raw.c21, 0),
		C21: raw.c21,
		C40: raw.c40 / norm,
		C41: raw.c41 / norm,
		C42: raw.c42 / (raw.c21 * raw.c21),
	}, nil
}

func sqAbs(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

// rawCumulants holds unnormalized sample cumulants.
type rawCumulants struct {
	c20      complex128
	c21      float64
	c40, c41 complex128
	c42      float64
}

func estimateRaw(d []complex128) (rawCumulants, error) {
	if len(d) == 0 {
		return rawCumulants{}, fmt.Errorf("hos: no samples")
	}
	var (
		sum2  complex128
		sumP  float64
		sum4  complex128
		sum31 complex128
		sumP2 float64
	)
	for _, v := range d {
		v2 := v * v
		p := real(v)*real(v) + imag(v)*imag(v)
		sum2 += v2
		sumP += p
		sum4 += v2 * v2
		sum31 += v2 * complex(p, 0)
		sumP2 += p * p
	}
	n := float64(len(d))
	c20 := sum2 / complex(n, 0)
	c21 := sumP / n
	if c21 == 0 {
		return rawCumulants{}, fmt.Errorf("hos: zero-power samples")
	}
	return rawCumulants{
		c20: c20,
		c21: c21,
		c40: sum4/complex(n, 0) - 3*c20*c20,
		c41: sum31/complex(n, 0) - 3*c20*complex(c21, 0),
		c42: sumP2/n - sqAbs(c20) - 2*c21*c21,
	}, nil
}

// Theoretical holds the noise-free normalized cumulants of a constellation
// (paper Table III, C21 = 1).
type Theoretical struct {
	Name string
	C20  float64
	C40  float64
	C42  float64
}

// TheoreticalTable reproduces the paper's Table III.
var TheoreticalTable = []Theoretical{
	{Name: "BPSK", C20: 1, C40: -2.0000, C42: -2.0000},
	{Name: "QPSK", C20: 0, C40: 1.0000, C42: -1.0000},
	{Name: "PSK(>4)", C20: 0, C40: 0.0000, C42: -1.0000},
	{Name: "4-PAM", C20: 1, C40: -1.3600, C42: -1.3600},
	{Name: "8-PAM", C20: 1, C40: -1.2381, C42: -1.2381},
	{Name: "16-PAM", C20: 1, C40: -1.2094, C42: -1.2094},
	{Name: "16-QAM", C20: 0, C40: -0.6800, C42: -0.6800},
	{Name: "64-QAM", C20: 0, C40: -0.6190, C42: -0.6190},
	{Name: "256-QAM", C20: 0, C40: -0.6047, C42: -0.6047},
}

// LookupTheoretical finds a constellation row by name.
func LookupTheoretical(name string) (Theoretical, error) {
	for _, row := range TheoreticalTable {
		if row.Name == name {
			return row, nil
		}
	}
	return Theoretical{}, fmt.Errorf("hos: unknown constellation %q", name)
}

// FeatureDistance2 returns the squared Euclidean distance in the
// [C40, C42] feature plane between estimated cumulants and a theoretical
// constellation — the D²E of the paper's hypothesis test. When useAbsC40 is
// set, |Ĉ40| replaces Re(Ĉ40), which removes the e^{j(Δf+θ)} rotation that
// frequency/phase offsets induce (Sec. VI-C).
func FeatureDistance2(est Cumulants, ref Theoretical, useAbsC40 bool) float64 {
	var c40 float64
	if useAbsC40 {
		c40 = cmplx.Abs(est.C40)
	} else {
		c40 = real(est.C40)
	}
	d40 := c40 - ref.C40
	d42 := est.C42 - ref.C42
	return d40*d40 + d42*d42
}

// ClassifyConstellation returns the TheoreticalTable row nearest to the
// estimate in the [C40, C42] plane — the general AMC use of the features.
func ClassifyConstellation(est Cumulants, useAbsC40 bool) Theoretical {
	best := TheoreticalTable[0]
	bestD := FeatureDistance2(est, best, useAbsC40)
	for _, row := range TheoreticalTable[1:] {
		if d := FeatureDistance2(est, row, useAbsC40); d < bestD {
			best, bestD = row, d
		}
	}
	return best
}
