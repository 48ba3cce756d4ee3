package dcfguard_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dcfguard"
	"dcfguard/internal/experiment"
	"dcfguard/internal/serve"
)

// The serve overhead guard pins the daemon's dispatch tax: a
// RunRandom40V2 sweep submitted through internal/serve — spec decode,
// admission, fair scheduling, RunGuarded, journal + artifact writes —
// must keep its per-cell time within 5% of the raw kernel's BENCH.json
// ns_per_op. Same env gate and noisy-host estimator as the obs guard
// (overhead_guard_test.go): dcfguard.BenchTime per batch, minimum
// accumulated across batches with pauses between failing ones, the
// threshold stretched by hostSpeedScale. Run by `make serve`.

// serveGuardSpec is the serializable twin of BenchScenarioRandom40V2:
// the Figure-9 40-node random topology, 5 misbehaving senders at PM 80,
// channel model v2, 2 simulated seconds. TestServeGuardSpecMatchesBench
// pins the equivalence, so the guard really measures daemon overhead on
// the recorded workload rather than on a drifted cousin.
func serveGuardSpec() experiment.ScenarioSpec {
	return experiment.ScenarioSpec{
		Name:     "random-40-v2",
		Topo:     experiment.TopoSpec{Kind: "random", Nodes: 40, Mis: 5},
		PM:       80,
		Duration: "2s",
		Channel:  "v2",
	}
}

// TestServeGuardSpecMatchesBench proves the wire spec above materialises
// the same simulation as the in-process bench scenario: one seed, full
// Result equality. Runs ungated — it is a correctness pin, not a timing
// assertion, and it is what licenses comparing the daemon sweep against
// RunRandom40V2's baseline at all.
func TestServeGuardSpecMatchesBench(t *testing.T) {
	if testing.Short() {
		t.Skip("two 2s-simulated runs; skipped under -short")
	}
	s, err := serveGuardSpec().ToScenario()
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	got, err := experiment.Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dcfguard.Run(dcfguard.BenchScenarioRandom40V2(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spec-built scenario diverges from BenchScenarioRandom40V2:\n got %+v\nwant %+v", got, want)
	}
}

func TestServeOverheadGuard(t *testing.T) {
	if os.Getenv(overheadGuardEnv) == "" {
		t.Skipf("set %s=1 to run the daemon overhead guard (make serve)", overheadGuardEnv)
	}
	bench := benchBaselines(t)
	baseline, hostRef := bench["RunRandom40V2"].NsPerOp, bench[dcfguard.HostReference].EventsPerSec
	if baseline <= 0 {
		t.Fatal("baseline: no RunRandom40V2 ns_per_op in BENCH.json")
	}

	// One worker, so the three cells run back-to-back and the job's
	// wall time is three sequential cells plus everything the daemon
	// adds around them (scheduling, journal fsyncs, artifacts).
	srv, err := serve.NewServer(serve.Options{
		DataDir: filepath.Join(t.TempDir(), "data"),
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	s, err := serveGuardSpec().ToScenario()
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{1, 2, 3}
	// minCost is one timed run of f, estimated as dcfguard.BenchTime.
	minCost := func(f func() error) time.Duration {
		d, err := dcfguard.BenchTime(f)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	scale, refNow := hostSpeedScale(hostRef)
	scaledBaseline := time.Duration(float64(baseline) / scale)
	t.Logf("host reference: recorded %.0f, now %.0f, limit scale %.3f", hostRef, refNow, scale)

	// The guard pins the daemon's *overhead*, not the kernel's speed —
	// that is bench-guard's job. Each batch therefore re-times the raw
	// kernel in this same process and budgets 5% on top of the larger
	// of (recorded baseline, raw floor): host drift that the reference
	// probe misses (cache pressure, frequency windows) inflates both
	// measurements alike and must not read as daemon overhead, while a
	// kernel that somehow got faster does not shrink the daemon's
	// recorded budget below BENCH.json's.
	bestCell := time.Duration(1<<63 - 1)
	var pass bool
	var limit time.Duration
	for batch := 0; batch < 10 && !pass; batch++ {
		if batch > 0 {
			time.Sleep(500 * time.Millisecond)
		}
		raw := time.Duration(1<<63 - 1)
		for _, seed := range seeds {
			seed := seed
			if d := minCost(func() error { _, err := experiment.Run(s, seed); return err }); d < raw {
				raw = d
			}
		}
		effective := scaledBaseline
		if raw > effective {
			effective = raw
		}
		limit = effective + effective/20

		// A fresh name each batch: resubmitting an identical spec is
		// idempotent, and a cached job would measure nothing.
		js := serve.JobSpec{
			Name:     fmt.Sprintf("serve-guard-%d", batch),
			Scenario: serveGuardSpec(),
			SeedList: seeds,
		}
		d := minCost(func() error {
			if _, err := srv.Submit(js); err != nil {
				return err
			}
			st, ok := srv.Wait(js.Name)
			if !ok || st.State != serve.StateDone {
				return fmt.Errorf("job ended %q (found %v): %v", st.State, ok, st.Failures)
			}
			return nil
		}) / time.Duration(len(seeds))
		if d < bestCell {
			bestCell = d
		}
		pass = bestCell <= limit
		t.Logf("batch %d: per-cell min %v, raw kernel %v, baseline %v, limit %v",
			batch+1, bestCell, raw, time.Duration(baseline), limit)
	}
	if !pass {
		t.Errorf("daemon-submitted RunRandom40V2 cell = %v exceeds %v (baseline %v + 5%%) — serve overhead is no longer in the noise",
			bestCell, limit, time.Duration(baseline))
	}
}
