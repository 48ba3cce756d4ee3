package sim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// --- keyed ordering -------------------------------------------------

// TestKeyedTieBreakByKey: at equal instants a keyed scheduler fires fan
// keys (bit 63 clear — physical arrivals) before owner keys (local
// timers), and within each class in ascending key order, regardless of
// the order the events were scheduled in.
func TestKeyedTieBreakByKey(t *testing.T) {
	var s Scheduler
	s.EnableKeyed(8)
	var got []string
	rec := func(name string) func(any, Time) {
		return func(any, Time) { got = append(got, name) }
	}
	at := Millisecond
	// Schedule in deliberately scrambled order.
	s.SetOwner(5)
	s.At(at, func() { got = append(got, "owner5") }) // owner key, owner 5
	s.AtKeyedArg(at, FanKey(3, 0, 1), rec("fan3->1"), nil)
	s.SetOwner(2)
	s.At(at, func() { got = append(got, "owner2") }) // owner key, owner 2
	s.AtKeyedArg(at, FanKey(1, 0, 4), rec("fan1->4"), nil)
	s.Run(Second)
	want := []string{"fan1->4", "fan3->1", "owner2", "owner5"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keyed tie-break order %v, want %v", got, want)
		}
	}
}

// TestKeyedOwnerFollowsFiringEvent: events scheduled from inside a
// firing callback inherit the firing event's owner, so a node's private
// counter advances identically on any shard layout.
func TestKeyedOwnerFollowsFiringEvent(t *testing.T) {
	var s Scheduler
	s.EnableKeyed(4)
	var fromThree EventRef
	s.SetOwner(3)
	s.At(Millisecond, func() {
		// Implicit rescheduling: must be keyed to owner 3, not to the
		// last SetOwner (which will be 1 by the time this fires).
		fromThree = s.At(2*Millisecond, func() {})
	})
	s.SetOwner(1)
	s.Run(Second)
	if fromThree.s == nil {
		t.Fatal("inner event never scheduled")
	}
	if s.ownerCtr[3] != 2 {
		t.Fatalf("owner 3 counter = %d, want 2 (setup event + rescheduled event)", s.ownerCtr[3])
	}
	if s.ownerCtr[1] != 0 {
		t.Fatalf("owner 1 counter = %d, want 0", s.ownerCtr[1])
	}
}

func TestFanKeyOverflowPanics(t *testing.T) {
	for _, c := range [][3]uint64{
		{MaxKeyedOwner + 1, 0, 0},
		{0, MaxFanFrame + 1, 0},
		{0, 0, MaxKeyedOwner + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FanKey(%d,%d,%d) did not panic", c[0], c[1], c[2])
				}
			}()
			FanKey(c[0], c[1], c[2])
		}()
	}
}

func TestEnableKeyedAfterSchedulingPanics(t *testing.T) {
	var s Scheduler
	s.At(Millisecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("EnableKeyed after scheduling did not panic")
		}
	}()
	s.EnableKeyed(4)
}

// TestKeyedSubstep: inside one queue entry, Substep publishes each later
// key as CurrentKey and as the owner context and counts one fired event
// per key, so a batch looks like separate events to owner counters,
// fan-in tags and EventsFired.
func TestKeyedSubstep(t *testing.T) {
	var s Scheduler
	s.EnableKeyed(8)
	var keys []uint64
	s.AtKeyedArg(Millisecond, FanKey(1, 0, 2), func(any, Time) {
		keys = append(keys, s.CurrentKey())
		s.At(2*Millisecond, func() {}) // charged to owner 2
		s.Substep(FanKey(1, 0, 5))
		keys = append(keys, s.CurrentKey())
		s.At(2*Millisecond, func() {}) // charged to owner 5
	}, nil)
	s.Run(Millisecond)
	if want := []uint64{FanKey(1, 0, 2), FanKey(1, 0, 5)}; fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Errorf("CurrentKey inside the batch = %#x, want %#x", keys, want)
	}
	if s.EventsFired() != 2 {
		t.Errorf("EventsFired = %d, want 2", s.EventsFired())
	}
	if s.ownerCtr[2] != 1 || s.ownerCtr[5] != 1 {
		t.Errorf("owner counters 2, 5 = %d, %d, want 1, 1", s.ownerCtr[2], s.ownerCtr[5])
	}
}

func TestKeyedSubstepPanics(t *testing.T) {
	// inEvent runs sub inside an event keyed FanKey(1, 0, 2).
	inEvent := func(sub func(s *Scheduler)) func() {
		return func() {
			var s Scheduler
			s.EnableKeyed(8)
			s.AtKeyedArg(Millisecond, FanKey(1, 0, 2), func(any, Time) { sub(&s) }, nil)
			s.Run(Second)
		}
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"non-keyed", func() {
			var s Scheduler
			s.At(Millisecond, func() { s.Substep(FanKey(1, 0, 3)) })
			s.Run(Second)
		}},
		{"equal key", inEvent(func(s *Scheduler) { s.Substep(FanKey(1, 0, 2)) })},
		{"lower key", inEvent(func(s *Scheduler) { s.Substep(FanKey(1, 0, 1)) })},
		{"not ascending", inEvent(func(s *Scheduler) {
			s.Substep(FanKey(1, 0, 4))
			s.Substep(FanKey(1, 0, 3))
		})},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

// TestKeyedSubstepInterruptStride: the interrupt poll is paced by queue
// pops, not by fired events. Every pop after the first fires two events
// (one Substep), so EventsFired stays odd and never lands on a multiple
// of the stride; Run, RunWindow and Drain must still stop the chain
// within one stride of pops after Interrupt.
func TestKeyedSubstepInterruptStride(t *testing.T) {
	const interruptAt, limit = 100, 8 * interruptStride
	for _, c := range []struct {
		name string
		run  func(s *Scheduler)
	}{
		{"Run", func(s *Scheduler) { s.Run(Second) }},
		{"RunWindow", func(s *Scheduler) { s.RunWindow(Second) }},
		{"Drain", func(s *Scheduler) { s.Drain() }},
	} {
		var s Scheduler
		s.EnableKeyed(2)
		pops := 0
		var tick func(any, Time)
		tick = func(_ any, now Time) {
			pops++
			if pops > 1 {
				s.Substep(FanKey(1, 0, 1))
			}
			if pops == interruptAt {
				s.Interrupt()
			}
			if pops < limit {
				s.AtKeyedArg(now+Microsecond, FanKey(1, 0, 0), tick, nil)
			}
		}
		s.AtKeyedArg(Microsecond, FanKey(1, 0, 0), tick, nil)
		c.run(&s)
		if pops < interruptAt || pops > interruptAt+interruptStride {
			t.Errorf("%s: stopped after %d pops, want within %d of the interrupt at %d", c.name, pops, interruptStride, interruptAt)
		}
		if s.EventsFired() != uint64(2*pops-1) {
			t.Errorf("%s: EventsFired = %d after %d pops, want %d", c.name, s.EventsFired(), pops, 2*pops-1)
		}
	}
}

// --- windows --------------------------------------------------------

// TestRunWindowStopsAtHorizon: RunWindow fires strictly before the
// horizon, leaves later events queued, and never advances the clock
// past the last fired event (the coordinator owns inter-window time).
func TestRunWindowStopsAtHorizon(t *testing.T) {
	var s Scheduler
	s.EnableKeyed(1)
	s.SetOwner(0)
	var fired []Time
	for _, at := range []Time{1 * Microsecond, 5 * Microsecond, 9 * Microsecond, 10 * Microsecond, 30 * Microsecond} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunWindow(10 * Microsecond)
	if len(fired) != 3 || fired[2] != 9*Microsecond {
		t.Fatalf("window [0,10µs) fired %v", fired)
	}
	if s.Now() != 9*Microsecond {
		t.Fatalf("clock %v after window, want 9µs (last fired event)", s.Now())
	}
	if w, ok := s.NextTime(); !ok || w != 10*Microsecond {
		t.Fatalf("NextTime = %v,%v, want 10µs", w, ok)
	}
	s.RunWindow(31 * Microsecond)
	if len(fired) != 5 {
		t.Fatalf("second window left events unfired: %v", fired)
	}
}

// TestNextTimeSkipsStale: cancelled events must not show up as a
// shard's next pending time — they would deadlock window computation.
func TestNextTimeSkipsStale(t *testing.T) {
	var s Scheduler
	s.EnableKeyed(1)
	s.SetOwner(0)
	r := s.At(Millisecond, func() {})
	s.At(2*Millisecond, func() {})
	s.Cancel(r)
	if w, ok := s.NextTime(); !ok || w != 2*Millisecond {
		t.Fatalf("NextTime = %v,%v, want 2ms (stale head skipped)", w, ok)
	}
}

// --- shard group ----------------------------------------------------

// TestShardGroupPingPong drives two shards whose only coupling is a
// cross-shard "message" injected at the barrier with the lookahead
// delay — a miniature of the medium's outbox protocol. The resulting
// trace must interleave both shards deterministically and the group
// counters must be coherent.
func TestShardGroupPingPong(t *testing.T) {
	const la = 10 * Microsecond
	a, b := &Scheduler{}, &Scheduler{}
	a.EnableKeyed(2)
	b.EnableKeyed(2)

	type msg struct {
		at  Time
		key uint64
	}
	var aOut, bOut []msg // messages for the OTHER shard, drained at barriers
	var trace []string
	var hops int
	var bounce func(dst *Scheduler, out *[]msg, name string) func(any, Time)
	bounce = func(dst *Scheduler, out *[]msg, name string) func(any, Time) {
		return func(_ any, now Time) {
			trace = append(trace, name)
			if hops++; hops < 8 {
				*out = append(*out, msg{at: now + la, key: FanKey(uint64(hops), uint64(hops), 0)})
			}
		}
	}
	onA := bounce(a, &aOut, "a")
	onB := bounce(b, &bOut, "b")

	g := NewShardGroup([]*Scheduler{a, b}, la)
	g.Exchange = func() {
		for _, m := range aOut {
			b.AtKeyedArg(m.at, m.key, onB, nil)
		}
		aOut = aOut[:0]
		for _, m := range bOut {
			a.AtKeyedArg(m.at, m.key, onA, nil)
		}
		bOut = bOut[:0]
	}
	a.SetOwner(0)
	a.At(Microsecond, func() { onA(nil, a.Now()) })
	g.Run(Second)

	want := []string{"a", "b", "a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
	if g.EventsFired() != a.EventsFired()+b.EventsFired() {
		t.Fatal("group EventsFired is not the shard sum")
	}
	if g.Now() != Second {
		t.Fatalf("group Now = %v, want %v (clocks advanced to until)", g.Now(), Second)
	}
	if a.Now() != Second || b.Now() != Second {
		t.Fatalf("shard clocks %v/%v, want both at until", a.Now(), b.Now())
	}
}

// TestShardGroupInterrupt: Interrupt from another goroutine stops the
// group at a window boundary mid-run, leaving coherent progress.
func TestShardGroupInterrupt(t *testing.T) {
	a, b := &Scheduler{}, &Scheduler{}
	a.EnableKeyed(1)
	b.EnableKeyed(1)
	a.SetOwner(0)
	b.SetOwner(0)
	var fired atomic.Uint64
	// Self-perpetuating load on both shards: without an interrupt this
	// runs ~1e9 windows.
	var tick func(s *Scheduler) func()
	tick = func(s *Scheduler) func() {
		return func() {
			fired.Add(1)
			s.After(Microsecond, tick(s))
		}
	}
	a.At(Microsecond, tick(a))
	b.At(Microsecond, tick(b))

	g := NewShardGroup([]*Scheduler{a, b}, Microsecond)
	go func() {
		for fired.Load() < 1000 {
		}
		g.Interrupt()
	}()
	g.Run(1000 * Second)
	if !g.Interrupted() {
		t.Fatal("group not marked interrupted")
	}
	if g.EventsFired() == 0 {
		t.Fatal("no events fired before interrupt")
	}
	if g.Now() <= 0 || g.Now() >= 1000*Second {
		t.Fatalf("interrupted group clock %v outside the run", g.Now())
	}
}

func TestNewShardGroupPanics(t *testing.T) {
	keyed := func() *Scheduler {
		s := &Scheduler{}
		s.EnableKeyed(1)
		return s
	}
	cases := map[string]func(){
		"one shard": func() { NewShardGroup([]*Scheduler{keyed()}, Microsecond) },
		"zero la":   func() { NewShardGroup([]*Scheduler{keyed(), keyed()}, 0) },
		"non-keyed": func() { NewShardGroup([]*Scheduler{keyed(), {}}, Microsecond) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestShardGroupWorkerPanic: a panic on a shard worker goroutine does
// not deadlock the barrier or kill the process sideways — the group
// parks every worker and re-panics the captured *ShardPanic (worker
// stack attached) on the Run caller's goroutine.
func TestShardGroupWorkerPanic(t *testing.T) {
	a, b := &Scheduler{}, &Scheduler{}
	a.EnableKeyed(1)
	b.EnableKeyed(1)
	a.SetOwner(0)
	b.SetOwner(0)
	// Steady load on shard 0 so both shards are genuinely inside
	// windows when shard 1 blows up.
	var tick func()
	tick = func() {
		a.After(Microsecond, tick)
	}
	a.At(Microsecond, tick)
	b.At(5*Microsecond, func() { panic("injected shard bug") })

	g := NewShardGroup([]*Scheduler{a, b}, Microsecond)
	defer func() {
		r := recover()
		sp, ok := r.(*ShardPanic)
		if !ok {
			t.Fatalf("recovered %v (%T), want *ShardPanic", r, r)
		}
		if sp.Shard != 1 {
			t.Fatalf("ShardPanic.Shard = %d, want 1", sp.Shard)
		}
		if got := fmt.Sprint(sp.Value); got != "injected shard bug" {
			t.Fatalf("ShardPanic.Value = %q", got)
		}
		if !strings.Contains(string(sp.Stack), "goroutine") {
			t.Fatal("ShardPanic carries no worker stack")
		}
		if !strings.Contains(sp.String(), "shard 1: injected shard bug") {
			t.Fatalf("ShardPanic.String() = %q", sp.String())
		}
	}()
	g.Run(Second)
	t.Fatal("Run returned instead of re-panicking")
}

// TestShardGroupTelemetry: the per-window telemetry callback sees every
// shard's busy time, event delta and queue depth, and the window's sim
// span, without perturbing the run.
func TestShardGroupTelemetry(t *testing.T) {
	a, b := &Scheduler{}, &Scheduler{}
	a.EnableKeyed(1)
	b.EnableKeyed(1)
	a.SetOwner(0)
	b.SetOwner(0)
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 100 {
			a.After(Microsecond, tick)
		}
	}
	a.At(Microsecond, tick)
	b.At(Microsecond, func() {})

	g := NewShardGroup([]*Scheduler{a, b}, Microsecond)
	windows := 0
	var events uint64
	g.Telemetry = func(w WindowTelemetry) {
		windows++
		if len(w.Busy) != 2 || len(w.Events) != 2 || len(w.Depth) != 2 {
			t.Fatalf("telemetry slices sized %d/%d/%d, want 2 each",
				len(w.Busy), len(w.Events), len(w.Depth))
		}
		if w.Horizon <= w.Start {
			t.Fatalf("window [%v, %v) is empty", w.Start, w.Horizon)
		}
		events += w.Events[0] + w.Events[1]
	}
	g.Run(Second)
	if windows == 0 {
		t.Fatal("telemetry callback never fired")
	}
	if events != g.EventsFired() {
		t.Fatalf("telemetry counted %d events, group fired %d", events, g.EventsFired())
	}
}
