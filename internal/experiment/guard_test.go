package experiment

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dcfguard/internal/sim"
	"dcfguard/internal/topo"
)

// quickScenario returns a short CORRECT-protocol star run used across
// the guard/journal tests (fast, but long enough to fire real traffic).
func quickScenario(name string) Scenario {
	s := DefaultScenario()
	s.Name = name
	s.PM = 80
	s.Duration = 200 * sim.Millisecond
	return s
}

// TestRunGuardedMatchesRun: guarding a healthy run must not perturb it.
func TestRunGuardedMatchesRun(t *testing.T) {
	s := quickScenario("guarded-baseline")
	plain, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := RunGuarded(s, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if resultChecksum(plain) != resultChecksum(guarded) {
		t.Fatal("RunGuarded perturbed a healthy run's result")
	}
}

// TestRunGuardedRecoversPanic: a panic inside the run becomes a
// *SeedFailure carrying the message and stack instead of killing the
// process.
func TestRunGuardedRecoversPanic(t *testing.T) {
	s := quickScenario("guarded-panic")
	s.Topo = func(uint64) *topo.Topology { panic("injected topology bug") }
	_, err := RunGuarded(s, 7, 0)
	var f *SeedFailure
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want *SeedFailure", err)
	}
	if f.Scenario != "guarded-panic" || f.Seed != 7 {
		t.Fatalf("failure identifies %q seed %d", f.Scenario, f.Seed)
	}
	if !strings.Contains(f.Panic, "injected topology bug") {
		t.Fatalf("Panic = %q, want the panic message", f.Panic)
	}
	if !strings.Contains(f.Stack, "goroutine") {
		t.Fatal("failure carries no stack trace")
	}
	dump := f.Dump()
	for _, want := range []string{"guarded-panic", "seed 7", "panic", "stack:"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("Dump() missing %q:\n%s", want, dump)
		}
	}
}

// TestRunGuardedPanicRepeats: a run is a pure function of (scenario,
// seed), so a panicking cell run twice panics with the same value at the
// same frame. This is why the serve daemon fails a panic on its first
// attempt. The bomb fires mid-run and its value carries the run's
// progress, so equal values also say the two runs got equally far.
func TestRunGuardedPanicRepeats(t *testing.T) {
	s := quickScenario("guarded-panic-repeats")
	testKernelHook = func(k sim.Kernel) {
		k.(*sim.Scheduler).At(150*sim.Millisecond, func() {
			panic(fmt.Sprintf("injected bug after %d events", k.EventsFired()))
		})
	}
	defer func() { testKernelHook = nil }()

	var fs [2]*SeedFailure
	for i := range fs {
		_, err := RunGuarded(s, 3, 0)
		if !errors.As(err, &fs[i]) || fs[i].Panic == "" {
			t.Fatalf("attempt %d: got %v, want a panic *SeedFailure", i+1, err)
		}
	}
	if fs[0].Panic != fs[1].Panic {
		t.Fatalf("panic values differ: %q vs %q", fs[0].Panic, fs[1].Panic)
	}
	top0, top1 := panicFrame(fs[0].Stack), panicFrame(fs[1].Stack)
	if top0 == "" || top0 != top1 {
		t.Fatalf("top frames differ: %q vs %q", top0, top1)
	}
	if !strings.Contains(top0, "TestRunGuardedPanicRepeats") {
		t.Fatalf("top frame %q is not the injected bomb", top0)
	}
}

// panicFrame returns the frame that called panic in a debug.Stack
// trace: the function line and its file:line, without the PC offset.
func panicFrame(stack string) string {
	lines := strings.Split(stack, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "panic(") && i+3 < len(lines) {
			file, _, _ := strings.Cut(strings.TrimSpace(lines[i+3]), " +0x")
			return lines[i+2] + " " + file
		}
	}
	return ""
}

// TestRunGuardedWatchdogTimeout: a run exceeding its wall-time budget is
// cancelled via the scheduler's interrupt flag and reported as timed out,
// with the progress snapshot filled in.
func TestRunGuardedWatchdogTimeout(t *testing.T) {
	s := quickScenario("guarded-timeout")
	// Hours of simulated backlogged traffic: cannot finish inside the
	// budget, so only the watchdog can end the run.
	s.Duration = 10_000 * sim.Second
	_, err := RunGuarded(s, 1, 50*time.Millisecond)
	var f *SeedFailure
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want *SeedFailure", err)
	}
	if !f.TimedOut {
		t.Fatalf("failure not marked TimedOut: %v", f)
	}
	if f.Timeout != 50*time.Millisecond {
		t.Fatalf("Timeout = %v, want 50ms", f.Timeout)
	}
	if f.Events == 0 {
		t.Fatal("timed-out run reports zero events fired")
	}
	if f.SimTime <= 0 || f.SimTime >= s.Duration {
		t.Fatalf("timed-out run's sim clock %v outside (0, %v)", f.SimTime, s.Duration)
	}
	if !strings.Contains(f.Error(), "timed out") {
		t.Fatalf("Error() = %q", f.Error())
	}
}

// TestRunGuardedShardedTimeout: the watchdog must stop a SHARDED run
// too — Interrupt reaches every shard scheduler and the barrier loop,
// the group exits at a window boundary, and the SeedFailure snapshot is
// coherent (events from all shards, a clock inside the run).
func TestRunGuardedShardedTimeout(t *testing.T) {
	s := quickScenario("guarded-sharded-timeout")
	s.Protocol = Protocol80211
	s.Topo = ScaledRandomTopo(200, 25)
	s.Channel = ChannelV3
	s.Shards = 4
	// Hours of simulated traffic: only the watchdog can end the run.
	s.Duration = 10_000 * sim.Second
	_, err := RunGuarded(s, 1, 50*time.Millisecond)
	var f *SeedFailure
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want *SeedFailure", err)
	}
	if !f.TimedOut {
		t.Fatalf("failure not marked TimedOut: %v", f)
	}
	if f.Events == 0 {
		t.Fatal("interrupted sharded run reports zero events fired")
	}
	if f.SimTime <= 0 || f.SimTime >= s.Duration {
		t.Fatalf("interrupted sharded run's sim clock %v outside (0, %v)", f.SimTime, s.Duration)
	}
	if !strings.Contains(f.Dump(), "watchdog") {
		t.Fatalf("Dump() missing the watchdog cause:\n%s", f.Dump())
	}
}

// TestRunGuardedWrapsSetupError: plain setup/validation errors also come
// back as *SeedFailure so sweep plumbing handles exactly one error shape.
func TestRunGuardedWrapsSetupError(t *testing.T) {
	s := quickScenario("guarded-invalid")
	s.Duration = 0
	_, err := RunGuarded(s, 1, 0)
	var f *SeedFailure
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want *SeedFailure", err)
	}
	if f.TimedOut || f.Panic != "" || f.Err == "" {
		t.Fatalf("setup error misclassified: %+v", f)
	}
}
