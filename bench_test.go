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

// BenchmarkFigures regenerates every table of the figure catalogue,
// one sub-benchmark per entry, named by its `figures -fig` name
// (BenchmarkFigures/4 is Figure 4, BenchmarkFigures/a1 ablation A1).
func BenchmarkFigures(b *testing.B) {
	cfg := benchConfig()
	for _, f := range Figures {
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
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
