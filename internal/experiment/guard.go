package experiment

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"dcfguard/internal/obs"
	"dcfguard/internal/sim"
)

// SeedFailure describes one (scenario, seed) run that did not produce a
// result: it panicked, exceeded its wall-time budget, or failed during
// setup. The sweep runner isolates such cells — the rest of the sweep
// still completes — and reports them so the caller can exit non-zero
// with a diagnostic dump instead of losing the whole experiment.
type SeedFailure struct {
	// Scenario and Seed identify the failed cell.
	Scenario string
	Seed     uint64
	// Panic and Stack capture a recovered panic (empty otherwise).
	Panic string
	Stack string
	// TimedOut is set when the watchdog cancelled the run; Timeout is
	// the budget it enforced.
	TimedOut bool
	Timeout  time.Duration
	// Err records a non-panic error, if any. From RunGuarded it is a
	// setup error (Validate, the topology's Validate, the shard count),
	// which reads neither a file nor the clock, so it repeats on every
	// attempt. The serve daemon also stores a refused journal write
	// here: the run succeeded but is not durable, and a retry may pass.
	Err string
	// Events and SimTime locate how far the run got before it died.
	Events  uint64
	SimTime sim.Time
	// TraceTail is the run's last buffered decision-trace records
	// (oldest first), drained from the obs ring buffer when the scenario
	// enabled tracing — the "what was the sim doing when it died" part
	// of the crash report.
	TraceTail []obs.Record
}

// Error implements error.
func (f *SeedFailure) Error() string {
	switch {
	case f.TimedOut:
		return fmt.Sprintf("experiment: %s seed %d: timed out after %v (%d events, t=%v)",
			f.Scenario, f.Seed, f.Timeout, f.Events, f.SimTime)
	case f.Panic != "":
		return fmt.Sprintf("experiment: %s seed %d: panic: %s", f.Scenario, f.Seed, f.Panic)
	default:
		return fmt.Sprintf("experiment: %s seed %d: %s", f.Scenario, f.Seed, f.Err)
	}
}

// Dump renders the full diagnostic block — scenario, seed, progress and
// (for panics) the stack — for the end-of-sweep failure report.
func (f *SeedFailure) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "--- seed failure: scenario %q seed %d ---\n", f.Scenario, f.Seed)
	switch {
	case f.TimedOut:
		fmt.Fprintf(&b, "cause: wall-time watchdog fired after %v\n", f.Timeout)
	case f.Panic != "":
		fmt.Fprintf(&b, "cause: panic: %s\n", f.Panic)
	default:
		fmt.Fprintf(&b, "cause: %s\n", f.Err)
	}
	fmt.Fprintf(&b, "progress: %d events fired, sim clock t=%v\n", f.Events, f.SimTime)
	if f.Stack != "" {
		b.WriteString("stack:\n")
		b.WriteString(f.Stack)
		if !strings.HasSuffix(f.Stack, "\n") {
			b.WriteByte('\n')
		}
	}
	if len(f.TraceTail) > 0 {
		fmt.Fprintf(&b, "trace tail (last %d events):\n", len(f.TraceTail))
		for _, r := range f.TraceTail {
			b.WriteString("  ")
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// RunGuarded executes the scenario like Run, but isolates the two ways a
// run can take the whole process (or sweep) down with it:
//
//   - a panic anywhere inside the run is recovered and reported as a
//     *SeedFailure carrying the stack and the run's progress;
//   - when timeout > 0, a watchdog cancels the run's event loop once the
//     wall-time budget is exhausted (via the scheduler's goroutine-safe
//     Interrupt flag, polled every few thousand events), reported the
//     same way.
//
// Every returned failure is a *SeedFailure (errors.As-able); successful
// runs are bit-identical to Run for the same (scenario, seed).
func RunGuarded(s Scenario, seed uint64, timeout time.Duration) (res Result, err error) {
	var kernel sim.Kernel
	var rt *obs.Runtime
	var watchdog *time.Timer
	armed := func(k sim.Kernel, r *obs.Runtime) {
		kernel = k
		rt = r
		if timeout > 0 {
			// The watchdog measures the host's wall clock on purpose: it
			// guards against a hung *process*, not simulated time, and the
			// sim clock cannot advance once the loop is stuck. Interrupt is
			// the kernel's goroutine-safe cancellation point (for sharded
			// runs it stops every shard and the barrier loop), so no
			// wall-clock value ever reaches simulation state.
			watchdog = time.AfterFunc(timeout, kernel.Interrupt) //detlint:allow wallclock -- wall-time budget for hung runs; touches only the atomic interrupt flag
		}
	}
	defer func() {
		if watchdog != nil {
			watchdog.Stop()
		}
		if r := recover(); r != nil {
			stack := string(debug.Stack())
			if sp, ok := r.(*sim.ShardPanic); ok {
				// A shard-worker panic re-panics on the coordinator; the
				// stack that matters is the worker's, captured at the
				// original recovery site.
				stack = string(sp.Stack)
			}
			f := &SeedFailure{
				Scenario: s.Name,
				Seed:     seed,
				Panic:    fmt.Sprint(r),
				Stack:    stack,
				// TraceTail is nil-safe: rt stays nil when the scenario
				// enables no tracing or the panic predates armed().
				TraceTail: rt.TraceTail(),
			}
			if kernel != nil {
				f.Events = kernel.EventsFired()
				f.SimTime = kernel.Now()
			}
			res, err = Result{}, f
		}
	}()
	res, err = run(s, seed, armed)
	if err != nil {
		var f *SeedFailure
		if errors.As(err, &f) {
			f.Timeout = timeout
		} else {
			err = &SeedFailure{Scenario: s.Name, Seed: seed, Err: err.Error()}
		}
	}
	return res, err
}
