package dcfguard

import (
	"testing"
)

// The benchmarks exercise the exact code paths that regenerate each
// paper figure, at reduced scale (short runs, few seeds) so `go test
// -bench=.` completes in minutes. cmd/figures runs the full-scale
// versions and writes the tables recorded in EXPERIMENTS.md.
//
// Reported custom metrics: sim_s/op is simulated seconds per wall
// iteration's scenario-run; events/op the kernel events executed.

// benchConfig is the per-iteration figure configuration,
// BenchFigConfig.
func benchConfig() Config { return BenchFigConfig() }

// benchScenario runs one scenario per iteration and reports kernel
// throughput, for benches that measure a single simulation.
func benchScenario(b *testing.B, s Scenario) {
	b.Helper()
	var events uint64
	for i := 0; i < b.N; i++ {
		r, err := Run(s, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		events += r.EventsFired
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(s.Duration.Seconds(), "sim_s/op")
}

// BenchmarkFig4DiagnosisAccuracy regenerates Figure 4 (diagnosis
// accuracy vs PM, ZERO-FLOW and TWO-FLOW).
func BenchmarkFig4DiagnosisAccuracy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Fig4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Throughput regenerates Figure 5 (MSB/AVG throughput,
// 802.11 vs CORRECT).
func BenchmarkFig5Throughput(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Fig5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6NoMisbehavior regenerates Figure 6 (and, sharing the
// sweep, Figure 7's data) for honest networks of varying size.
func BenchmarkFig6NoMisbehavior(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := Fig6And7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Fairness regenerates Figure 7 via the shared sweep.
func BenchmarkFig7Fairness(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Responsiveness regenerates Figure 8 (per-second
// diagnosis series).
func BenchmarkFig8Responsiveness(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Fig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9RandomTopology regenerates Figure 9 (random topologies).
func BenchmarkFig9RandomTopology(b *testing.B) {
	cfg := benchConfig()
	cfg.PMs = []int{80}
	for i := 0; i < b.N; i++ {
		if _, err := Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPenaltyFactor regenerates ablation A1.
func BenchmarkAblationPenaltyFactor(b *testing.B) {
	cfg := benchConfig()
	cfg.PMs = []int{80}
	for i := 0; i < b.N; i++ {
		if _, err := AblationPenaltyFactor(cfg, []float64{1.0, 1.25}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlpha regenerates ablation A2.
func BenchmarkAblationAlpha(b *testing.B) {
	cfg := benchConfig()
	cfg.PMs = []int{50}
	for i := 0; i < b.N; i++ {
		if _, err := AblationAlpha(cfg, []float64{0.7, 0.9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWindow regenerates ablation A3.
func BenchmarkAblationWindow(b *testing.B) {
	cfg := benchConfig()
	cfg.PMs = []int{50}
	points := []WindowPoint{{W: 5, Thresh: 20}, {W: 10, Thresh: 40}}
	for i := 0; i < b.N; i++ {
		if _, err := AblationWindow(cfg, points); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAttemptVerification regenerates ablation A4.
func BenchmarkAblationAttemptVerification(b *testing.B) {
	cfg := benchConfig()
	cfg.PMs = []int{80}
	for i := 0; i < b.N; i++ {
		if _, err := AblationAttemptVerification(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationReceiverMisbehavior regenerates ablation A5.
func BenchmarkAblationReceiverMisbehavior(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := AblationReceiverMisbehavior(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAdaptiveThresh regenerates ablation A6.
func BenchmarkAblationAdaptiveThresh(b *testing.B) {
	cfg := benchConfig()
	cfg.PMs = []int{50}
	for i := 0; i < b.N; i++ {
		if _, err := AblationAdaptiveThresh(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBasicAccess regenerates ablation A7.
func BenchmarkAblationBasicAccess(b *testing.B) {
	cfg := benchConfig()
	cfg.PMs = []int{80}
	for i := 0; i < b.N; i++ {
		if _, err := AblationBasicAccess(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun80211Star measures raw kernel throughput on the baseline
// 8-sender star (802.11).
func BenchmarkRun80211Star(b *testing.B) {
	benchScenario(b, BenchScenario80211Star())
}

// BenchmarkRunCorrectStar measures kernel throughput with the full
// monitor pipeline active.
func BenchmarkRunCorrectStar(b *testing.B) {
	benchScenario(b, BenchScenarioCorrectStar())
}

// BenchmarkRunRandom40V2 measures kernel throughput on the Figure-9
// 40-node random topology.
func BenchmarkRunRandom40V2(b *testing.B) {
	benchScenario(b, BenchScenarioRandom40V2())
}

// BenchmarkRunRandom200 measures v2 scaling at 200 nodes (constant
// Figure-9 density).
func BenchmarkRunRandom200(b *testing.B) {
	benchScenario(b, BenchScenarioRandom200())
}

// BenchmarkRunRandom400 measures v2 scaling at 400 nodes.
func BenchmarkRunRandom400(b *testing.B) {
	benchScenario(b, BenchScenarioRandom400())
}
