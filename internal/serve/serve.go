// Package serve is the sim-as-a-service daemon core: it accepts fully
// serialized experiment specs over HTTP (or in-process), fans each job
// into (scenario, seed) cells on a worker pool with per-tenant fair
// scheduling, and survives anything short of losing the data directory.
//
// The robustness stance, in one paragraph: disk is the source of truth
// (spec before ack, journal before "done", artifacts before terminal —
// all through atomicio), decisions are deterministic (retry backoff is
// counter-RNG jitter keyed by cell identity; the breaker counts
// consecutive panics; neither reads a clock), and overload is refused
// at the door (bounded outstanding-cell queue → 429 + Retry-After,
// /readyz flips) rather than absorbed until collapse. Kill -9 the
// daemon mid-sweep, restart it, and every artifact comes out
// byte-for-byte identical — that property is pinned by tests and the
// CI smoke script, not just asserted here.
package serve

import (
	"runtime"
	"time"

	"dcfguard/internal/obs"
)

// Options configures a Server. The zero value serves from "serve-data"
// in the current directory with library defaults.
type Options struct {
	// DataDir roots the on-disk job store ("" = "serve-data").
	DataDir string
	// Workers caps the cell worker pool (0 = GOMAXPROCS).
	Workers int
	// QueueCap bounds total outstanding cells across all jobs; beyond
	// it, submissions are refused with 429 + Retry-After (0 = 1024).
	QueueCap int
	// Retry is the per-cell retry policy; the zero value means
	// DefaultRetryPolicy.
	Retry RetryPolicy
	// BreakerK is the per-job consecutive-panic trip threshold
	// (0 = 3, negative disables the breaker).
	BreakerK int
	// SeedTimeout bounds each cell's wall time via RunGuarded's
	// watchdog (0 = no watchdog).
	SeedTimeout time.Duration
	// Retain, when positive, bounds the terminal jobs kept on disk: on
	// startup and whenever a job turns terminal, only the Retain most
	// recently finished terminal jobs survive; older ones are deleted
	// (directory and all). Live jobs are never touched. 0 keeps
	// everything.
	Retain int
	// Registry receives the daemon's "serve"-scoped counters
	// (nil = a private registry; expose it to share /metrics).
	Registry *obs.Registry
	// Timer schedules a function after a delay, returning a cancel
	// func. Nil means time.AfterFunc; tests inject a manual clock so
	// retry scheduling is exercised without real sleeps.
	Timer func(d time.Duration, f func()) (stop func())
}

func (o Options) withDefaults() Options {
	if o.DataDir == "" {
		o.DataDir = "serve-data"
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
	if o.Retry == (RetryPolicy{}) {
		o.Retry = DefaultRetryPolicy()
	}
	switch {
	case o.BreakerK == 0:
		o.BreakerK = 3
	case o.BreakerK < 0:
		o.BreakerK = 0 // Breaker treats K=0 as disabled.
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Timer == nil {
		o.Timer = func(d time.Duration, f func()) func() {
			t := time.AfterFunc(d, f)
			return func() { t.Stop() }
		}
	}
	return o
}

// metrics are the daemon's own counters, registered under the "serve"
// scope of the observability registry and exported via /metrics.
type metrics struct {
	jobsSubmitted *obs.Counter
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsDegraded  *obs.Counter
	cellsRun      *obs.Counter
	cellsResumed  *obs.Counter
	cellsRetried  *obs.Counter
	cellsFailed   *obs.Counter
	rejected      *obs.Counter
	jobsRetired   *obs.Counter
}

// NewMetrics resolves every handle once, at attach time; the hot paths
// only touch the stored atomics.
func NewMetrics(reg *obs.Registry) metrics {
	return metrics{
		jobsSubmitted: reg.Counter("serve", obs.NoNode, "jobs_submitted"),
		jobsDone:      reg.Counter("serve", obs.NoNode, "jobs_done"),
		jobsFailed:    reg.Counter("serve", obs.NoNode, "jobs_failed"),
		jobsDegraded:  reg.Counter("serve", obs.NoNode, "jobs_degraded"),
		cellsRun:      reg.Counter("serve", obs.NoNode, "cells_run"),
		cellsResumed:  reg.Counter("serve", obs.NoNode, "cells_resumed"),
		cellsRetried:  reg.Counter("serve", obs.NoNode, "cells_retried"),
		cellsFailed:   reg.Counter("serve", obs.NoNode, "cells_failed"),
		rejected:      reg.Counter("serve", obs.NoNode, "admission_rejected"),
		jobsRetired:   reg.Counter("serve", obs.NoNode, "jobs_retired"),
	}
}
