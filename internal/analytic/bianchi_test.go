package analytic

import (
	"math"
	"testing"

	"dcfguard/internal/mac"
)

func model(n int) Model {
	return Model{N: n, MAC: mac.DefaultParams(), PayloadBytes: 512, BitRate: 2_000_000}
}

func TestStages(t *testing.T) {
	// CWMin 31 → 63 → 127 → 255 → 511 → 1023 = CWMax: 5 stages.
	if got := model(4).stages(); got != 5 {
		t.Fatalf("stages = %d, want 5", got)
	}
}

func TestTauSingleStation(t *testing.T) {
	tau, p := model(1).Tau()
	if p != 0 {
		t.Fatalf("p = %v for a lone station", p)
	}
	if tau <= 0 || tau >= 1 {
		t.Fatalf("tau = %v", tau)
	}
}

func TestTauFixedPointConverges(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		tau, p := model(n).Tau()
		if tau <= 0 || tau >= 1 || p <= 0 || p >= 1 {
			t.Fatalf("n=%d: tau=%v p=%v out of (0,1)", n, tau, p)
		}
		// The fixed point must be self-consistent.
		w := 32.0
		want := 2 * (1 - 2*p) / ((1-2*p)*(w+1) + p*w*(1-math.Pow(2*p, 5)))
		if math.Abs(tau-want) > 1e-9 {
			t.Fatalf("n=%d: tau=%v not at fixed point (want %v)", n, tau, want)
		}
	}
}

func TestTauDecreasesWithN(t *testing.T) {
	prev := 1.0
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		tau, _ := model(n).Tau()
		if tau >= prev {
			t.Fatalf("tau did not decrease at n=%d: %v >= %v", n, tau, prev)
		}
		prev = tau
	}
}

func TestCollisionProbabilityIncreasesWithN(t *testing.T) {
	prev := 0.0
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		p := model(n).CollisionProbability()
		if p <= prev {
			t.Fatalf("p did not increase at n=%d: %v <= %v", n, p, prev)
		}
		prev = p
	}
}

func TestThroughputBelowCeiling(t *testing.T) {
	for _, n := range []int{1, 2, 8, 32} {
		m := model(n)
		s := m.SaturationThroughputBps()
		if s <= 0 || s >= m.MaxGoodputBps() {
			t.Fatalf("n=%d: throughput %v outside (0, %v)", n, s, m.MaxGoodputBps())
		}
	}
}

func TestThroughputCeilingValue(t *testing.T) {
	// One full exchange: 276+10+256+10+2352+10+256+50 µs = 3220 µs for
	// 4096 payload bits → 1.272 Mbps.
	got := model(8).MaxGoodputBps()
	if math.Abs(got-4096/3220e-6) > 1 {
		t.Fatalf("ceiling = %v, want ≈1.272e6", got)
	}
}

func TestAggregateThroughputDegradesGracefully(t *testing.T) {
	// Total saturation goodput falls slowly with n (collision overhead),
	// but not catastrophically.
	s8 := model(8).SaturationThroughputBps()
	s64 := model(64).SaturationThroughputBps()
	if s64 >= s8 {
		t.Fatalf("throughput should fall with contention: %v vs %v", s64, s8)
	}
	if s64 < 0.6*s8 {
		t.Fatalf("throughput collapsed too hard: %v vs %v", s64, s8)
	}
}

func TestValidate(t *testing.T) {
	bad := []Model{
		{N: 0, MAC: mac.DefaultParams(), PayloadBytes: 512, BitRate: 2e6},
		{N: 2, MAC: mac.DefaultParams(), PayloadBytes: 0, BitRate: 2e6},
		{N: 2, MAC: mac.DefaultParams(), PayloadBytes: 512, BitRate: 0},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := model(2).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTauPanicsOnInvalidModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid model did not panic")
		}
	}()
	Model{}.Tau()
}
