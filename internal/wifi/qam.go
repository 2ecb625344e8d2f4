package wifi

import (
	"fmt"
	"math"

	"hideseek/internal/bits"
)

// QAMOrder identifies a square constellation size.
type QAMOrder int

// Supported constellations.
const (
	QAM4  QAMOrder = 4  // QPSK as used by 802.11 rate 12/18 Mb/s
	QAM16 QAMOrder = 16 // 24/36 Mb/s
	QAM64 QAMOrder = 64 // 48/54 Mb/s — the paper's attack constellation
)

// qamAxisLevels returns the per-axis Gray-coded level table: index = the
// axis bit group interpreted MSB-first, value = amplitude level. For 64-QAM
// this is the standard 000→−7 ... 100→+7 mapping.
func qamAxisLevels(bitsPerAxis int) []float64 {
	n := 1 << uint(bitsPerAxis)
	levels := make([]float64, n)
	for v := 0; v < n; v++ {
		g := int(bits.GrayDecode(uint32(v)))
		levels[v] = float64(2*g - (n - 1))
	}
	return levels
}

// Constellation is a Gray-mapped square QAM constellation with unit average
// power.
type Constellation struct {
	order       QAMOrder
	bitsPerSym  int
	bitsPerAxis int
	levels      []float64 // axis levels indexed by bit group
	norm        float64   // 1/sqrt(meanPower) scale
	points      []complex128
}

// NewConstellation builds the constellation for the given order.
func NewConstellation(order QAMOrder) (*Constellation, error) {
	var bitsPerSym int
	switch order {
	case QAM4:
		bitsPerSym = 2
	case QAM16:
		bitsPerSym = 4
	case QAM64:
		bitsPerSym = 6
	default:
		return nil, fmt.Errorf("wifi: unsupported QAM order %d", order)
	}
	bitsPerAxis := bitsPerSym / 2
	levels := qamAxisLevels(bitsPerAxis)
	// Mean symbol power of the unnormalized grid: E[I²+Q²] = 2·E[level²].
	var p float64
	for _, l := range levels {
		p += l * l
	}
	p = 2 * p / float64(len(levels))
	c := &Constellation{
		order:       order,
		bitsPerSym:  bitsPerSym,
		bitsPerAxis: bitsPerAxis,
		levels:      levels,
		norm:        1 / math.Sqrt(p),
	}
	c.points = c.buildPoints()
	return c, nil
}

func (c *Constellation) buildPoints() []complex128 {
	out := make([]complex128, 0, int(c.order))
	for i := 0; i < 1<<uint(c.bitsPerAxis); i++ {
		for q := 0; q < 1<<uint(c.bitsPerAxis); q++ {
			out = append(out, complex(c.levels[i]*c.norm, c.levels[q]*c.norm))
		}
	}
	return out
}

// Order returns the constellation size.
func (c *Constellation) Order() QAMOrder { return c.order }

// BitsPerSymbol returns log2(order).
func (c *Constellation) BitsPerSymbol() int { return c.bitsPerSym }

// Norm returns the unit-power scale factor (1/√42 for 64-QAM).
func (c *Constellation) Norm() float64 { return c.norm }

// Points returns a copy of all constellation points (unit average power).
func (c *Constellation) Points() []complex128 {
	out := make([]complex128, len(c.points))
	copy(out, c.points)
	return out
}

// Map converts a bit stream into constellation symbols. len(b) must be a
// multiple of BitsPerSymbol. The first half of each group drives I, the
// second half Q, each MSB-first (IEEE 802.11 Table 17-14 ordering).
func (c *Constellation) Map(b []bits.Bit) ([]complex128, error) {
	if len(b)%c.bitsPerSym != 0 {
		return nil, fmt.Errorf("wifi: bit count %d not a multiple of %d", len(b), c.bitsPerSym)
	}
	out := make([]complex128, 0, len(b)/c.bitsPerSym)
	for off := 0; off < len(b); off += c.bitsPerSym {
		iIdx, err := bitsToIndex(b[off : off+c.bitsPerAxis])
		if err != nil {
			return nil, err
		}
		qIdx, err := bitsToIndex(b[off+c.bitsPerAxis : off+c.bitsPerSym])
		if err != nil {
			return nil, err
		}
		out = append(out, complex(c.levels[iIdx]*c.norm, c.levels[qIdx]*c.norm))
	}
	return out, nil
}

// Demap hard-slices symbols back to bits by nearest constellation point.
func (c *Constellation) Demap(symbols []complex128) []bits.Bit {
	out := make([]bits.Bit, 0, len(symbols)*c.bitsPerSym)
	for _, s := range symbols {
		iIdx := c.nearestAxisIndex(real(s))
		qIdx := c.nearestAxisIndex(imag(s))
		out = append(out, indexToBits(iIdx, c.bitsPerAxis)...)
		out = append(out, indexToBits(qIdx, c.bitsPerAxis)...)
	}
	return out
}

// nearestAxisIndex finds the bit-group index whose level is closest to the
// (normalized) coordinate v.
func (c *Constellation) nearestAxisIndex(v float64) int {
	best, bestDist := 0, math.Inf(1)
	for idx, l := range c.levels {
		d := math.Abs(v - l*c.norm)
		if d < bestDist {
			best, bestDist = idx, d
		}
	}
	return best
}

// Quantize returns the nearest point of the odd-integer grid (±1, ±3, …
// per axis) scaled by alpha to v, along with the squared quantization
// error. It is the inner step of the paper's Eq. (4) optimization.
func (c *Constellation) Quantize(v complex128, alpha float64) (complex128, float64) {
	if alpha <= 0 {
		return 0, real(v)*real(v) + imag(v)*imag(v)
	}
	i, q, _ := c.levelsAt(v, alpha)
	return complex(i*alpha, q*alpha), sqErr(v, i, q, alpha)
}

// QuantizeErrorSum returns the sum, in slice order, of the squared errors
// Quantize reports for every point at scale alpha — Eq. (4)'s objective,
// bit for bit what a loop over Quantize accumulates.
func (c *Constellation) QuantizeErrorSum(points []complex128, alpha float64) float64 {
	return c.QuantizeErrorSumBelow(points, nil, alpha, math.NaN()) // no sum reaches NaN
}

// QuantizeErrorSumBelow is QuantizeErrorSum that gives up once its running
// sum reaches bound. The result is below bound exactly when
// QuantizeErrorSum's is, and then equals it bit for bit: every term is
// ≥ 0 or NaN, and a round-to-nearest add of a non-negative term never
// lowers a float sum, so a partial sum at or above bound stays there. A NaN
// partial sum never reaches bound and runs to the end.
//
// pinned is nil, or PinLevels' output for points over an interval that
// holds alpha; each pinned point skips the level choice and only pays for
// its error term.
func (c *Constellation) QuantizeErrorSumBelow(points, pinned []complex128, alpha, bound float64) float64 {
	var sum float64
	if alpha <= 0 {
		for _, v := range points {
			sum += real(v)*real(v) + imag(v)*imag(v)
		}
		return sum
	}
	if pinned == nil {
		for _, v := range points {
			i, q, _ := c.levelsAt(v, alpha)
			if sum += sqErr(v, i, q, alpha); sum >= bound {
				break
			}
		}
		return sum
	}
	pinned = pinned[:len(points)]
	for k, v := range points {
		i, q := real(pinned[k]), imag(pinned[k])
		if math.IsNaN(i) { // not pinned
			i, q, _ = c.levelsAt(v, alpha)
		}
		if sum += sqErr(v, i, q, alpha); sum >= bound {
			break
		}
	}
	return sum
}

// PinLevels stores in dst[k], as complex(i, q), the axis levels Quantize
// picks for points[k] at every scale in [lo, hi], 0 < lo ≤ hi, and NaN
// where it cannot promise one pair. A point is pinned when the closed
// form decides its levels at both ends and they agree: x/α is monotone in
// α, and so is the nearest-level rule, so every scale between the ends
// lands x in the same level's cell. dst is grown as needed and returned.
func (c *Constellation) PinLevels(dst, points []complex128, lo, hi float64) []complex128 {
	if cap(dst) < len(points) {
		dst = make([]complex128, len(points))
	}
	dst = dst[:len(points)]
	for k, v := range points {
		i0, q0, ok0 := c.levelsAt(v, lo)
		i1, q1, ok1 := c.levelsAt(v, hi)
		if ok0 && ok1 && i0 == i1 && q0 == q1 {
			dst[k] = complex(i0, q0)
		} else {
			dst[k] = complex(math.NaN(), 0)
		}
	}
	return dst
}

// levelsAt returns the axis levels Quantize picks for v at scale
// alpha > 0 — the table scan's choice — and whether the closed form
// decided both. This is the one place the oddLevel-or-scan fallback lives.
func (c *Constellation) levelsAt(v complex128, alpha float64) (i, q float64, closed bool) {
	x, y := real(v)/alpha, imag(v)/alpha
	top := int64(len(c.levels) - 1)
	i, iok := oddLevel(x, top)
	q, qok := oddLevel(y, top)
	if iok && qok {
		return i, q, true
	}
	return scanLevels(x, c.levels), scanLevels(y, c.levels), false
}

// sqErr is the squared distance from v to the level pair (i, q) scaled by
// alpha; pinned and unpinned terms share it, so they round alike.
func sqErr(v complex128, i, q, alpha float64) float64 {
	dr := real(v) - i*alpha
	di := imag(v) - q*alpha
	return dr*dr + di*di
}

// oddLevel is the O(1) form of scanLevels over the odd integers in
// [−top, top]: the nearest odd integer to x, clamped. ok reports whether it
// provably equals the scan's answer. It does for 2⁻⁵⁰ ≤ |x| < 2⁴⁰ when x is
// not an even integer: rounding is monotone, so the computed distances
// |x−l| keep the exact distances' order, and in that range the nearest and
// second-nearest levels still differ after rounding. Outside it — an even
// integer (an exact tie), a tiny |x| where 1−|x| and 1+|x| both round to
// 1, a huge |x| where every distance rounds alike, NaN or ±Inf — the scan's
// first-in-Gray-order tie rule decides, so ok is false.
func oddLevel(x float64, top int64) (level float64, ok bool) {
	if ax := math.Abs(x); !(ax >= 0x1p-50 && ax < 0x1p40) {
		return 0, false
	}
	h := x / 2
	f := int64(h) // truncates toward zero; exact for |h| < 2³⁹
	t := float64(f)
	if t > h {
		f-- // floor for negative non-integers
	}
	return float64(min(max(2*f+1, -top), top)), t != h
}

// scanLevels is the reference nearest-level rule: the first table entry
// with the strictly smallest computed distance |x−l|.
func scanLevels(x float64, levels []float64) float64 {
	best, bestDist := levels[0], math.Abs(x-levels[0])
	for _, l := range levels[1:] {
		if d := math.Abs(x - l); d < bestDist {
			best, bestDist = l, d
		}
	}
	return best
}

func bitsToIndex(b []bits.Bit) (int, error) {
	v := 0
	for _, bit := range b {
		if bit > 1 {
			return 0, fmt.Errorf("wifi: invalid bit value %d", bit)
		}
		v = v<<1 | int(bit)
	}
	return v, nil
}

func indexToBits(v, n int) []bits.Bit {
	out := make([]bits.Bit, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = bits.Bit(v & 1)
		v >>= 1
	}
	return out
}
