package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples: their count, median and
// quartiles. The quartiles follow Python's statistics.quantiles(xs, n=4)
// (its default "exclusive" method), so a reader recomputing them from
// the printed samples gets the same numbers.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample, or the mean of the two middle
// samples; NaN for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles exactly as
// statistics.quantiles(xs, n=4) computes them. One sample is its own
// quartiles; none gives NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between the closest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minTail is how many samples must lie beyond a percentile before it is
// worth reporting: with fewer, the percentile is one or two outliers.
const minTail = 10

// tailSamples returns how many of n samples lie beyond the p-th
// percentile (p in whole percent).
func tailSamples(n, p int) int { return n * (100 - p) / 100 }

// reportablePercentile returns the highest of p99, p90 and p50 that has
// at least minTail samples beyond it out of n, or 0 when even the
// median has too few.
func reportablePercentile(n int) int {
	for _, p := range []int{99, 90, 50} {
		if tailSamples(n, p) >= minTail {
			return p
		}
	}
	return 0
}
