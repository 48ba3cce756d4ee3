package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{4, 1, 3, 2, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{7, 7}, 7, 7},
		{[]float64{1, 10}, -1.25, 12.25},
		{[]float64{3}, 3, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 90)) {
		t.Error("empty samples must give NaN")
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for _, c := range []struct{ p, want float64 }{{0, 0}, {50, 50}, {90, 90}, {99, 99}, {100, 100}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(0..100, %v) = %v", c.p, got)
		}
	}
	if got := percentile([]float64{10, 20}, 25); !near(got, 12.5) {
		t.Errorf("interpolated percentile = %v, want 12.5", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestReportablePercentile(t *testing.T) {
	cases := []struct{ n, p int }{
		{0, 0},
		{19, 0},
		{20, 50},
		{99, 50},
		{100, 90},
		{999, 90},
		{1000, 99},
	}
	for _, c := range cases {
		p := reportablePercentile(c.n)
		if p != c.p {
			t.Errorf("reportablePercentile(%d) = %d, want %d", c.n, p, c.p)
		}
		if p > 0 && tailSamples(c.n, p) < minTail {
			t.Errorf("n=%d: p%d has only %d samples beyond it", c.n, p, tailSamples(c.n, p))
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{3, 1, 2, 4})
	if s.N != 4 || s.Median != 2.5 || !near(s.Q1, 1.25) || !near(s.Q3, 3.75) {
		t.Errorf("summarize = %+v", s)
	}
}
