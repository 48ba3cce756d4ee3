package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestJainPerfectFairness(t *testing.T) {
	if got := Jain([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Jain(equal) = %v, want 1", got)
	}
}

func TestJainMonopoly(t *testing.T) {
	if got := Jain([]float64{10, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Jain(monopoly of 4) = %v, want 0.25", got)
	}
}

func TestJainKnownValue(t *testing.T) {
	// (1+2+3)² / (3·(1+4+9)) = 36/42.
	if got := Jain([]float64{1, 2, 3}); math.Abs(got-36.0/42) > 1e-12 {
		t.Fatalf("Jain(1,2,3) = %v, want %v", got, 36.0/42)
	}
}

func TestJainEdgeCases(t *testing.T) {
	if got := Jain(nil); got != 0 {
		t.Fatalf("Jain(nil) = %v, want 0", got)
	}
	if got := Jain([]float64{0, 0}); got != 0 {
		t.Fatalf("Jain(zeros) = %v, want 0", got)
	}
}

func TestJainPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative throughput did not panic")
		}
	}()
	Jain([]float64{1, -1})
}

func TestQuickJainBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		tps := make([]float64, len(raw))
		nonZero := false
		for i, v := range raw {
			tps[i] = float64(v)
			if v != 0 {
				nonZero = true
			}
		}
		got := Jain(tps)
		if !nonZero {
			return got == 0
		}
		lo := 1 / float64(len(tps))
		return got >= lo-1e-12 && got <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJainScaleInvariant(t *testing.T) {
	f := func(raw []uint8, scale uint8) bool {
		if len(raw) < 2 {
			return true
		}
		k := float64(scale%9) + 1
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, v := range raw {
			a[i] = float64(v)
			b[i] = float64(v) * k
		}
		return math.Abs(Jain(a)-Jain(b)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Unbiased variance of this classic set is 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", w.Variance(), 32.0/7)
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w Welford
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 || w.CI95() != 0 {
		t.Fatalf("single-sample stats = (%v, %v, %v)", w.Mean(), w.Variance(), w.CI95())
	}
}

func TestWelfordCI95Shrinks(t *testing.T) {
	var small, large Welford
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 3))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 3))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI95 did not shrink with samples: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestWelfordSummarize(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(3)
	s := w.Summarize()
	if s.N != 2 || s.Mean != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt2) > 1e-12 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
}

func TestQuickWelfordMatchesDirect(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, v := range raw {
			w.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, v := range raw {
			ss += (float64(v) - mean) * (float64(v) - mean)
		}
		direct := ss / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-direct) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
