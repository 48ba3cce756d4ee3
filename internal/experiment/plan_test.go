package experiment_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"dcfguard/internal/experiment"
	"dcfguard/internal/sim"
	"dcfguard/internal/topo"
)

// TestGeneratorsPlanOneSweep: every generator lists all its cells up
// front and runs them as one sweep, every cell carries the config's
// channel and duration, and no two cells share a (name, seed) key. The
// config asks for channel v1, which no scenario gets by default, so a
// generator that builds from DefaultScenario and forgets cfg.Channel
// shows here. The sweep is faked, so nothing is simulated.
func TestGeneratorsPlanOneSweep(t *testing.T) {
	cfg := tinyConfig()
	cfg.Channel = experiment.ChannelV1
	for _, g := range generators {
		var sweeps [][]experiment.SweepCell
		restore := experiment.SwapSweep(func(cells []experiment.SweepCell, _ experiment.SweepOptions) (experiment.SweepReport, error) {
			sweeps = append(sweeps, cells)
			rep := experiment.SweepReport{Results: make([]experiment.Result, len(cells))}
			for i, c := range cells {
				rep.Results[i] = experiment.Result{Scenario: c.Scenario.Name, Seed: c.Seed}
			}
			return rep, nil
		})
		_, err := g.run(cfg)
		restore()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if len(sweeps) != 1 {
			t.Errorf("%s ran %d sweeps, want 1", g.name, len(sweeps))
			continue
		}
		keys := make(map[string]bool)
		for _, c := range sweeps[0] {
			s := c.Scenario
			if s.Channel != cfg.Channel {
				t.Errorf("%s: cell %s seed %d runs channel %v, config asks %v", g.name, s.Name, c.Seed, s.Channel, cfg.Channel)
			}
			if s.Duration != cfg.Duration {
				t.Errorf("%s: cell %s seed %d runs %v, config asks %v", g.name, s.Name, c.Seed, s.Duration, cfg.Duration)
			}
			key := experiment.CellFileName(s.Name, c.Seed)
			if keys[key] {
				t.Errorf("%s: cell key %s planned twice", g.name, key)
			}
			keys[key] = true
		}
		if len(keys)%len(cfg.Seeds) != 0 || len(keys) < 2*len(cfg.Seeds) {
			t.Errorf("%s planned %d cells, want every point at each of %d seeds and more than one point",
				g.name, len(keys), len(cfg.Seeds))
		}
	}
}

// TestPlannedCellPanicFailsGenerator: one panicking cell of a
// multi-point generator fails the generator with that cell's
// *SeedFailure, while the pool drains and exits.
func TestPlannedCellPanicFailsGenerator(t *testing.T) {
	const victim = "fig4-two-flow-pm80"
	restore := experiment.SwapSweep(func(cells []experiment.SweepCell, opts experiment.SweepOptions) (experiment.SweepReport, error) {
		for i := range cells {
			if cells[i].Scenario.Name == victim && cells[i].Seed == 2 {
				cells[i].Scenario.Topo = func(uint64) *topo.Topology { panic("injected topology fault") }
			}
		}
		return experiment.RunSweep(cells, opts)
	})
	defer restore()

	cfg := tinyConfig()
	cfg.Duration = 500 * sim.Millisecond
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := experiment.Fig4(cfg)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("Fig4 did not return: the pool deadlocked on a panicking cell")
	}

	var f *experiment.SeedFailure
	if !errors.As(err, &f) {
		t.Fatalf("Fig4 error %v (%T), want a *SeedFailure", err, err)
	}
	if f.Scenario != victim || f.Seed != 2 || !strings.Contains(f.Panic, "injected topology fault") {
		t.Fatalf("failure names %s seed %d panic %q, want %s seed 2", f.Scenario, f.Seed, f.Panic, victim)
	}
	if want := "experiment: " + victim + " seed 2: panic:"; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q, want prefix %q", err, want)
	}
	// Worker goroutines exit once the sweep returns; give the scheduler
	// a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the failed sweep, %d before: the pool leaked workers", n, before)
	}
}

// TestRunSeedsErrorTextAndSeedLists: RunSeeds and RunAll report a
// failed run as "experiment: <name> seed <n>: <cause>", naming the first
// failing seed in list order, and accept any seed list: unsorted,
// repeated, or holding seed 0.
func TestRunSeedsErrorTextAndSeedLists(t *testing.T) {
	bad := experiment.DefaultScenario()
	bad.Name = "bad-pm"
	bad.PM = 101
	_, runErr := experiment.Run(bad, 7)
	if runErr == nil {
		t.Fatal("PM 101 accepted")
	}
	_, err := experiment.RunSeeds(bad, []uint64{7, 3})
	if want := fmt.Sprintf("experiment: bad-pm seed 7: %v", runErr); err == nil || err.Error() != want {
		t.Fatalf("RunSeeds error %v, want %q", err, want)
	}

	s := experiment.DefaultScenario()
	s.Name = "seed-lists"
	s.PM = 80
	s.Duration = 200 * sim.Millisecond
	for _, seeds := range [][]uint64{{1}, {2, 1}, {3, 3}, {0, 2, 0, 2}} {
		got, err := experiment.RunAll(s, seeds)
		if err != nil {
			t.Fatalf("RunAll(%v): %v", seeds, err)
		}
		if len(got) != len(seeds) {
			t.Fatalf("RunAll(%v) returned %d results", seeds, len(got))
		}
		for i, seed := range seeds {
			want, err := experiment.Run(s, seed)
			if err != nil {
				t.Fatal(err)
			}
			g, w := []experiment.Result{got[i]}, []experiment.Result{want}
			if experiment.ResultsCSV(g)+experiment.PerSenderCSV(g) != experiment.ResultsCSV(w)+experiment.PerSenderCSV(w) {
				t.Errorf("RunAll(%v)[%d] differs from Run(seed %d)", seeds, i, seed)
			}
		}
	}
}
