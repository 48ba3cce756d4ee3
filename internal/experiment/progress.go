package experiment

// SweepProgress publishes a sweep's live position — total cells, cells
// finished, failures, cells restored from the journal — through atomic
// counters a monitoring goroutine (the macsim -progress ticker, the obs
// debug endpoint's /debug/sweep handler, the serve daemon's job status)
// can read while workers run.
//
// It deliberately carries no wall-clock state: the reader measures
// elapsed time itself and hands it to SweepSnapshot.ETA, keeping host
// time out of this package's sweep path.
import (
	"sync/atomic"
	"time"
)

// SweepProgress is the live counter block. The zero value is ready to
// use; share one instance between SweepOptions.Progress and whatever
// reads it.
type SweepProgress struct {
	total   atomic.Int64
	done    atomic.Int64
	failed  atomic.Int64
	resumed atomic.Int64
	ran     atomic.Int64
	events  atomic.Int64
	retried atomic.Int64
}

// SweepSnapshot is one consistent-enough read of a SweepProgress (each
// field is read atomically; the set is not a transaction).
type SweepSnapshot struct {
	// Total is the sweep's cell count; Done the cells finished so far
	// (successes, failures and journal-resumed cells alike).
	Total int `json:"total"`
	Done  int `json:"done"`
	// Failed counts cells that ended in a *SeedFailure; Resumed the
	// cells restored from the journal without running; Ran the cells
	// actually executed this invocation (Done = Ran + Resumed).
	Failed  int `json:"failed"`
	Resumed int `json:"resumed"`
	Ran     int `json:"ran"`
	// Events totals the kernel events fired by cells executed this
	// invocation (resumed cells contribute nothing — they cost no
	// compute). Two reads a known wall interval apart give the
	// instantaneous events/sec the -progress ticker prints.
	Events int64 `json:"events"`
	// Retried counts retry attempts scheduled for this sweep's cells
	// (always 0 for local macsim sweeps, which never retry; the serve
	// daemon feeds it when a timed-out or undurable cell is requeued).
	Retried int `json:"retried"`
}

// SetTotal records the sweep's cell count. Like every mutator it is
// nil-safe, so RunSweep updates an optional progress block
// unconditionally.
func (p *SweepProgress) SetTotal(n int) {
	if p != nil {
		p.total.Store(int64(n))
	}
}

// CellDone records one executed cell, failed or not.
func (p *SweepProgress) CellDone(failed bool) {
	if p == nil {
		return
	}
	p.done.Add(1)
	p.ran.Add(1)
	if failed {
		p.failed.Add(1)
	}
}

// AddEvents credits n kernel events to the sweep's executed total.
func (p *SweepProgress) AddEvents(n uint64) {
	if p != nil {
		p.events.Add(int64(n))
	}
}

// CellRetried records one scheduled retry attempt.
func (p *SweepProgress) CellRetried() {
	if p != nil {
		p.retried.Add(1)
	}
}

// CellResumed records one cell restored from the journal without
// running.
func (p *SweepProgress) CellResumed() {
	if p == nil {
		return
	}
	p.done.Add(1)
	p.resumed.Add(1)
}

// Snapshot returns the current counters (zero value on a nil receiver).
func (p *SweepProgress) Snapshot() SweepSnapshot {
	if p == nil {
		return SweepSnapshot{}
	}
	return SweepSnapshot{
		Total:   int(p.total.Load()),
		Done:    int(p.done.Load()),
		Failed:  int(p.failed.Load()),
		Resumed: int(p.resumed.Load()),
		Ran:     int(p.ran.Load()),
		Events:  p.events.Load(),
		Retried: int(p.retried.Load()),
	}
}

// ETA extrapolates the remaining wall time from the elapsed wall time
// the caller measured: elapsed/Ran per executed cell, times the cells
// left. Journal-resumed cells cost no compute, so they are excluded
// from the rate — a restarted sweep that instantly restores 90% of its
// cells no longer reports a wildly optimistic ETA for the 10% it still
// has to run. Returns 0 when no cells have run yet (rate unknown) or
// nothing is left.
func (s SweepSnapshot) ETA(elapsed time.Duration) time.Duration {
	left := s.Total - s.Done
	if s.Ran <= 0 || left <= 0 {
		return 0
	}
	return time.Duration(float64(elapsed) / float64(s.Ran) * float64(left))
}
