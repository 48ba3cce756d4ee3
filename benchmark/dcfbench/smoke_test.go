package main

import (
	"testing"
	"time"

	"dcfguard/internal/sim"
)

// tinyScale shrinks every workload so the smoke test runs all five,
// timed and traced, in seconds.
var tinyScale = scale{
	fig4Duration:      2 * sim.Second,
	fig4PMs:           []int{20, 80},
	s400Seeds:         2,
	s400Duration:      100 * sim.Millisecond,
	s4kNodes:          400,
	s4kDuration:       50 * sim.Millisecond,
	forensicsDuration: 2 * sim.Second,
	jobs:              3,
	cellDuration:      "100ms",
	setupSamples:      2,
	minReps:           1,
}

// TestSmokeAllWorkloads runs every workload once timed and once traced
// at tiny sizes: each must report every metric, run at least one
// operation, and pass every oracle and replay check.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 7, trace: traced, out: t.TempDir(), sc: tinyScale}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res := rep.Result
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					name, traced, res.Correct, res.Attempted, res.Failed, rep.Failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
	t.Logf("smoke run took %v", time.Since(start))
}
