package dcfguard_test

import (
	"os"
	"testing"
	"time"

	"dcfguard"
)

// The overhead guard pins the observability layer's "disabled is free"
// claim against the recorded baseline: with Scenario.Observe nil, the
// nil-check no-ops on every hook must keep RunRandom40V2 within 2% of
// its BENCH.json ns_per_op. It is gated
// behind DCFGUARD_OVERHEAD_GUARD=1 (run by `make obs`) because absolute
// wall-time assertions are only meaningful on the machine that captured
// the baseline — elsewhere the numbers compare different silicon.
//
// The estimator is built for a noisy host: each run contributes its
// dcfguard.BenchTime, min(wall, process CPU), and the minimum
// accumulates across batches with a pause between failing ones, so a
// transient slow window (frequency scaling, a noisy co-tenant) gets
// ridden out. A real regression raises the floor itself and keeps
// failing no matter how many batches run.

const overheadGuardEnv = "DCFGUARD_OVERHEAD_GUARD"

// benchBaselines loads BENCH.json, the baselines every guard reads.
func benchBaselines(t *testing.T) map[string]dcfguard.BenchEntry {
	t.Helper()
	base, err := dcfguard.LoadBench("BENCH.json")
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	return base
}

// hostSpeedScale compares the machine's current HostReferenceRate
// against the rate recorded in BENCH.json and returns (now/recorded,
// now), capped at 1 — the shared host's clock drifts by tens of
// percent across minutes, and the guards scale their thresholds by
// this factor so a slow window is not mistaken for a regression (a
// fast window never loosens a threshold).
func hostSpeedScale(recorded float64) (scale, now float64) {
	now = dcfguard.HostReferenceRate()
	if now > 0 && now < recorded {
		return now / recorded, now
	}
	return 1, now
}

func TestDisabledObservabilityOverhead(t *testing.T) {
	if os.Getenv(overheadGuardEnv) == "" {
		t.Skipf("set %s=1 to run the wall-time overhead guard (make obs)", overheadGuardEnv)
	}
	bench := benchBaselines(t)
	baseline, hostRef := bench["RunRandom40V2"].NsPerOp, bench[dcfguard.HostReference].EventsPerSec
	if baseline <= 0 {
		t.Fatal("baseline: no RunRandom40V2 ns_per_op in BENCH.json")
	}

	s := dcfguard.BenchScenarioRandom40V2()
	if s.Observe != nil {
		t.Fatal("bench scenario unexpectedly carries an Observe config")
	}
	scale, refNow := hostSpeedScale(hostRef)
	// baseline × 1.02, stretched by how much slower the host runs now
	// than when BENCH.json was captured (hostSpeedScale).
	limit := time.Duration(float64(baseline+baseline/50) / scale)
	t.Logf("host reference: recorded %.0f, now %.0f, limit scale %.3f", hostRef, refNow, scale)
	best := time.Duration(1<<63 - 1)
	for batch := 0; batch < 10 && best > limit; batch++ {
		if batch > 0 {
			time.Sleep(500 * time.Millisecond)
		}
		for i := 0; i < 5; i++ {
			d, err := dcfguard.BenchTime(func() error {
				_, err := dcfguard.Run(s, uint64(i+1))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if d < best {
				best = d
			}
		}
		t.Logf("batch %d: RunRandom40V2 min %v, baseline %v, limit %v",
			batch+1, best, time.Duration(baseline), limit)
	}
	if best > limit {
		t.Errorf("disabled-instrumentation RunRandom40V2 = %v exceeds %v (baseline %v + 2%%) — the obs hooks are not free when off",
			best, limit, time.Duration(baseline))
	}
}
