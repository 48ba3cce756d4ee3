// Package stats holds the numeric helpers behind the paper's
// evaluation metrics: Jain's fairness index, Welford's running mean and
// variance, and multi-seed aggregation with confidence intervals.
package stats

import (
	"fmt"
	"math"
)

// Jain returns Jain's fairness index over per-flow throughputs:
// (Σ T_f)² / (N · Σ T_f²). It is 1 for perfectly equal shares and 1/N
// when one flow monopolises the channel. Zero-flow inputs return 0.
func Jain(throughputs []float64) float64 {
	if len(throughputs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, t := range throughputs {
		if t < 0 {
			panic(fmt.Sprintf("stats: negative throughput %v", t))
		}
		sum += t
		sumSq += t * t
	}
	//detlint:allow floateq -- division guard: sums of non-negatives are exactly 0 only when every input is 0
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(throughputs)) * sumSq)
}

// Welford accumulates a running mean and variance without storing
// samples (Welford's online algorithm). The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with < 2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean (the paper averages 30 runs, comfortably in
// normal-approximation territory).
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * w.StdDev() / math.Sqrt(float64(w.n))
}

// Summary is a Welford snapshot for result tables.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64
}

// Summarize snapshots the accumulator.
func (w *Welford) Summarize() Summary {
	return Summary{N: w.n, Mean: w.Mean(), StdDev: w.StdDev(), CI95: w.CI95()}
}
