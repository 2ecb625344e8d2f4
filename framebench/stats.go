package main

import (
	"fmt"
	"math"
	"slices"
)

// median returns the middle of xs (the mean of the middle two for an
// even count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs, q in [0, 1].
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailBeyond is how many samples the reported tail leaves above it.
const tailBeyond = 10

// tail is the highest percentile of xs with at least tailBeyond samples
// beyond it: the value, its percentile, and the sample count.
type tail struct {
	value, percentile float64
	n                 int
}

func tailOf(xs []float64) (tail, error) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{}, fmt.Errorf("%d latency samples, need more than %d for a tail", n, tailBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return tail{value: s[n-tailBeyond-1], percentile: 100 * float64(n-tailBeyond) / float64(n), n: n}, nil
}

func (t tail) String() string {
	return fmt.Sprintf("p%.2f of %d samples, %d beyond", t.percentile, t.n, tailBeyond)
}
