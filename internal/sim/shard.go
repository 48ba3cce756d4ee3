package sim

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Kernel is the surface the experiment harness drives a run through,
// satisfied by both *Scheduler (serial runs) and *ShardGroup (sharded
// runs): the wall-time watchdog needs Interrupt, the result plumbing
// needs the counters and the final clock.
type Kernel interface {
	// Run executes events until no event at or before until remains, or
	// the kernel is interrupted.
	Run(until Time)
	// Interrupt requests a stop at an event (or window) boundary; safe
	// from any goroutine.
	Interrupt()
	// Interrupted reports whether Interrupt has been called.
	Interrupted() bool
	// EventsFired returns the total events executed.
	EventsFired() uint64
	// Now returns the current simulated time (for a group, the furthest
	// shard clock).
	Now() Time
}

// ShardGroup runs several keyed schedulers in lockstep conservative
// time windows (Chandy–Misra-style bounded lag with a fixed lookahead):
//
//	T       = min over shards of the next pending event time
//	horizon = min(T + lookahead, until + 1)
//
// Every cross-shard interaction is a medium fan-out with delay ≥
// lookahead, so an event firing inside [T, horizon) can only schedule
// onto another shard at ≥ T + lookahead ≥ horizon — never inside the
// window being drained. Each shard therefore drains [.., horizon)
// independently on its own goroutine; at the barrier the coordinator
// calls Exchange, which injects the buffered boundary messages
// single-threadedly before the next window is computed. Keyed (when,
// key) ordering makes the merged stream — and thus every result — a
// pure function of the model, not of goroutine interleaving.
type ShardGroup struct {
	scheds    []*Scheduler
	lookahead Time

	// Exchange is called at every barrier with all shards parked; it
	// must move buffered cross-shard messages into their destination
	// schedulers (the medium's outbox drain) in a deterministic order.
	Exchange func()

	// Telemetry, when non-nil, receives per-window statistics at every
	// barrier, on the coordinator goroutine with all shards parked. The
	// slices in the argument are reused across windows: consume or copy
	// them inside the callback. A nil hook costs nothing — no clocks are
	// read and no buffers are kept. Wall-time fields describe the host,
	// never the model; feeding them back into simulation state would
	// break determinism (the pass-through contract of internal/obs).
	Telemetry func(WindowTelemetry)

	interrupted atomic.Bool
	panicked    atomic.Pointer[ShardPanic]

	// Per-window telemetry scratch, allocated once per Run when the
	// hook is set. Workers write only their own index between barriers;
	// the done-channel handoff orders those writes before the
	// coordinator's reads.
	busy   []time.Duration
	events []uint64
	depth  []int
}

// WindowTelemetry describes one completed conservative window.
type WindowTelemetry struct {
	// Start and Horizon bound the window in simulated time.
	Start, Horizon Time
	// Wall is the coordinator's wall-clock span of the window: dispatch
	// to last shard done. Busy[i] is shard i's wall time inside
	// RunWindow; Wall − Busy[i] approximates its barrier wait.
	Wall time.Duration
	Busy []time.Duration
	// Events[i] counts events shard i fired within the window; Depth[i]
	// is its pending-event count at the barrier.
	Events []uint64
	Depth  []int
}

// ShardPanic wraps a panic recovered on a shard worker goroutine. The
// group keeps the barrier protocol alive (so every shard parks and
// buffered trace emissions stay flushable), then re-panics with this
// value on the coordinator — the per-seed guard's recover sees the
// worker's own stack, not the coordinator's.
type ShardPanic struct {
	Shard int
	Value any
	Stack []byte
}

func (p *ShardPanic) String() string {
	return fmt.Sprintf("shard %d: %v", p.Shard, p.Value)
}

// NewShardGroup assembles a group over scheds. lookahead must be
// positive: it is the minimum cross-shard scheduling delay the model
// guarantees (for channel model v3, min(V3PropDelay, slot time)).
func NewShardGroup(scheds []*Scheduler, lookahead Time) *ShardGroup {
	if len(scheds) < 2 {
		panic("sim: ShardGroup needs at least 2 shards")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: ShardGroup lookahead %v must be positive", lookahead))
	}
	for _, s := range scheds {
		if !s.Keyed() {
			panic("sim: ShardGroup over a non-keyed scheduler")
		}
	}
	return &ShardGroup{scheds: scheds, lookahead: lookahead}
}

// Run drives all shards until no events at or before until remain, or
// the group is interrupted. Workers are persistent goroutines fed one
// horizon per window over a channel; the coordinator owns every
// scheduler between barriers, so NextTime, Exchange, and the final
// clock advance all run single-threaded.
func (g *ShardGroup) Run(until Time) {
	n := len(g.scheds)
	starts := make([]chan Time, n)
	for i := range starts {
		starts[i] = make(chan Time, 1)
	}
	done := make(chan struct{}, n)
	if g.Telemetry != nil {
		g.busy = make([]time.Duration, n)
		g.events = make([]uint64, n)
		g.depth = make([]int, n)
	}
	for i, s := range g.scheds {
		go func(i int, s *Scheduler, start <-chan Time) {
			for h := range start {
				g.runShardWindow(i, s, h)
				done <- struct{}{}
			}
		}(i, s, starts[i])
	}
	for !g.interrupted.Load() {
		// T: the earliest pending event anywhere. Events beyond until
		// stay queued, exactly like the serial Run's push-back.
		var t Time
		have := false
		for _, s := range g.scheds {
			if w, ok := s.NextTime(); ok && (!have || w < t) {
				t, have = w, true
			}
		}
		if !have || t > until {
			break
		}
		horizon := t + g.lookahead
		if horizon > until+1 {
			// Clamp into the run: without this, a late-run window could
			// admit events past until that the serial kernel leaves
			// unfired. until+1 (not until) so events at exactly until
			// fire — RunWindow's bound is strict.
			horizon = until + 1
		}
		var wall0 time.Time
		if g.Telemetry != nil {
			wall0 = time.Now() //detlint:allow wallclock -- host-performance telemetry, never a scheduling input
		}
		for i := range starts {
			starts[i] <- horizon
		}
		for range g.scheds {
			<-done
		}
		if g.panicked.Load() != nil {
			break // re-panic below, after the workers are parked
		}
		if g.Telemetry != nil {
			g.Telemetry(WindowTelemetry{
				Start: t, Horizon: horizon,
				Wall: time.Since(wall0), //detlint:allow wallclock -- host-performance telemetry, never a scheduling input
				Busy: g.busy, Events: g.events, Depth: g.depth,
			})
		}
		if g.Exchange != nil {
			g.Exchange()
		}
	}
	for i := range starts {
		close(starts[i])
	}
	if sp := g.panicked.Load(); sp != nil {
		panic(sp)
	}
	if g.interrupted.Load() {
		return // leave every clock at its last fired event
	}
	// Windows leave each clock at its shard's last fired event; finish
	// exactly like the serial kernel by advancing every clock to until.
	// No events at or before until remain, so nothing fires.
	for _, s := range g.scheds {
		s.Run(until)
	}
}

// runShardWindow drains one window on shard i's worker goroutine. A
// panic inside the window is captured (first one wins) and the group
// interrupted; the worker then keeps honouring the barrier protocol, so
// the coordinator can park every shard before re-panicking — crash
// forensics (the ring tail) see a fully flushed, coherently ordered
// trace instead of a process torn mid-barrier.
func (g *ShardGroup) runShardWindow(i int, s *Scheduler, h Time) {
	defer func() {
		if r := recover(); r != nil {
			sp := &ShardPanic{Shard: i, Value: r, Stack: debug.Stack()}
			if g.panicked.CompareAndSwap(nil, sp) {
				g.Interrupt()
			}
		}
	}()
	if g.Telemetry == nil {
		s.RunWindow(h)
		return
	}
	wall0 := time.Now() //detlint:allow wallclock -- host-performance telemetry, never a scheduling input
	e0 := s.EventsFired()
	s.RunWindow(h)
	g.busy[i] = time.Since(wall0) //detlint:allow wallclock -- host-performance telemetry, never a scheduling input
	g.events[i] = s.EventsFired() - e0
	g.depth[i] = s.Pending()
}

// Interrupt stops the group at the next window boundary and every shard
// at its next stride poll within the current window. Safe from
// any goroutine; used by the per-seed wall-time watchdog.
func (g *ShardGroup) Interrupt() {
	g.interrupted.Store(true)
	for _, s := range g.scheds {
		s.Interrupt()
	}
}

// Interrupted reports whether Interrupt has been called.
func (g *ShardGroup) Interrupted() bool { return g.interrupted.Load() }

// EventsFired returns the total events executed across all shards.
func (g *ShardGroup) EventsFired() uint64 {
	var n uint64
	for _, s := range g.scheds {
		n += s.EventsFired()
	}
	return n
}

// Now returns the furthest shard clock.
func (g *ShardGroup) Now() Time {
	var t Time
	for _, s := range g.scheds {
		if w := s.Now(); w > t {
			t = w
		}
	}
	return t
}

// Shards returns the group's schedulers (indexed by shard).
func (g *ShardGroup) Shards() []*Scheduler { return g.scheds }
