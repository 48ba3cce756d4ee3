package core

import (
	"slices"
	"testing"
	"testing/quick"

	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

const (
	tSlot = 20 * sim.Microsecond
	tDIFS = 50 * sim.Microsecond
)

func newObs() *IdleObserver {
	return NewIdleObserver(tSlot, tDIFS, 2*sim.Second)
}

func TestIdleSlotsFullyIdle(t *testing.T) {
	o := newObs()
	// Window of exactly DIFS + 5 slots, channel idle throughout.
	from := sim.Time(100 * sim.Microsecond)
	to := from + tDIFS + 5*tSlot
	if got := o.IdleSlots(from, to); got != 5 {
		t.Fatalf("IdleSlots = %d, want 5", got)
	}
}

func TestIdleSlotsShorterThanDIFS(t *testing.T) {
	o := newObs()
	from := sim.Time(0)
	if got := o.IdleSlots(from, from+tDIFS-sim.Microsecond); got != 0 {
		t.Fatalf("IdleSlots = %d, want 0 for sub-DIFS window", got)
	}
}

func TestIdleSlotsPartialSlotDiscarded(t *testing.T) {
	o := newObs()
	from := sim.Time(0)
	to := from + tDIFS + 3*tSlot + 19*sim.Microsecond
	if got := o.IdleSlots(from, to); got != 3 {
		t.Fatalf("IdleSlots = %d, want 3 (partial slot must not count)", got)
	}
}

func TestIdleSlotsBusyGapSplitsWindow(t *testing.T) {
	o := newObs()
	// Idle DIFS+4 slots, busy 1 ms, idle DIFS+6 slots.
	start := sim.Time(0)
	busyAt := start + tDIFS + 4*tSlot
	idleAt := busyAt + sim.Millisecond
	end := idleAt + tDIFS + 6*tSlot
	o.OnBusy(busyAt)
	o.OnIdle(idleAt)
	if got := o.IdleSlots(start, end); got != 10 {
		t.Fatalf("IdleSlots = %d, want 10 (each gap pays its own DIFS)", got)
	}
}

func TestIdleSlotsWindowStartsDuringBusy(t *testing.T) {
	o := newObs()
	o.OnBusy(0)
	o.OnIdle(sim.Millisecond)
	from := 500 * sim.Microsecond // mid-busy
	to := sim.Millisecond + tDIFS + 7*tSlot
	if got := o.IdleSlots(from, to); got != 7 {
		t.Fatalf("IdleSlots = %d, want 7", got)
	}
}

func TestIdleSlotsWindowEndsDuringBusy(t *testing.T) {
	o := newObs()
	o.OnBusy(tDIFS + 4*tSlot)
	o.OnIdle(10 * sim.Millisecond)
	if got := o.IdleSlots(0, tDIFS+4*tSlot+sim.Millisecond); got != 4 {
		t.Fatalf("IdleSlots = %d, want 4", got)
	}
}

func TestIdleSlotsEntirelyBusy(t *testing.T) {
	o := newObs()
	o.OnBusy(0)
	if got := o.IdleSlots(sim.Microsecond, sim.Millisecond); got != 0 {
		t.Fatalf("IdleSlots = %d, want 0 for busy window", got)
	}
}

func TestIdleSlotsZeroWindow(t *testing.T) {
	o := newObs()
	if got := o.IdleSlots(sim.Millisecond, sim.Millisecond); got != 0 {
		t.Fatalf("IdleSlots = %d, want 0 for empty window", got)
	}
}

func TestIdleSlotsInvertedWindowPanics(t *testing.T) {
	o := newObs()
	defer func() {
		if recover() == nil {
			t.Fatal("inverted window did not panic")
		}
	}()
	o.IdleSlots(2*sim.Millisecond, sim.Millisecond)
}

func TestObserverDeduplicatesTransitions(t *testing.T) {
	o := newObs()
	o.OnBusy(sim.Millisecond)
	o.OnBusy(2 * sim.Millisecond) // duplicate busy must be ignored
	o.OnIdle(3 * sim.Millisecond)
	o.OnIdle(4 * sim.Millisecond) // duplicate idle must be ignored
	if o.Busy() {
		t.Fatal("state should be idle after OnIdle")
	}
	// Idle [0,1ms): DIFS + floor(950/20) = 47; busy [1,3); idle [3, 3+DIFS+2slots).
	end := 3*sim.Millisecond + tDIFS + 2*tSlot
	want := 47 + 2
	if got := o.IdleSlots(0, end); got != want {
		t.Fatalf("IdleSlots = %d, want %d", got, want)
	}
}

func TestObserverPruneKeepsWindowAccuracy(t *testing.T) {
	o := NewIdleObserver(tSlot, tDIFS, 10*sim.Millisecond)
	// Fill far past the horizon with busy/idle pairs.
	for i := 0; i < 1000; i++ {
		base := sim.Time(i) * sim.Millisecond
		o.OnBusy(base + 500*sim.Microsecond)
		o.OnIdle(base + 600*sim.Microsecond)
	}
	// A recent window is still computed exactly: within [999.6 ms,
	// 999.6 ms + DIFS + 5 slots) the channel is idle.
	from := 999*sim.Millisecond + 600*sim.Microsecond
	to := from + tDIFS + 5*tSlot
	if got := o.IdleSlots(from, to); got != 5 {
		t.Fatalf("IdleSlots after pruning = %d, want 5", got)
	}
}

func TestObserverValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero slot did not panic")
		}
	}()
	NewIdleObserver(0, tDIFS, sim.Second)
}

func TestQuickIdleSlotsNonNegativeAndBounded(t *testing.T) {
	f := func(busyOffsets []uint16, winStart, winLen uint16) bool {
		o := newObs()
		at := sim.Time(0)
		busy := false
		for _, d := range busyOffsets {
			at += sim.Time(d%1000+1) * sim.Microsecond
			if busy {
				o.OnIdle(at)
			} else {
				o.OnBusy(at)
			}
			busy = !busy
		}
		from := sim.Time(winStart) * sim.Microsecond
		to := from + sim.Time(winLen)*sim.Microsecond
		got := o.IdleSlots(from, to)
		maxSlots := int((to - from) / tSlot)
		return got >= 0 && got <= maxSlots
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIdleSlotsMonotoneInWindow(t *testing.T) {
	// Extending the window never decreases the count.
	f := func(busyOffsets []uint16, winLen1, winLen2 uint16) bool {
		o := newObs()
		at := sim.Time(0)
		busy := false
		for _, d := range busyOffsets {
			at += sim.Time(d%500+1) * sim.Microsecond
			if busy {
				o.OnIdle(at)
			} else {
				o.OnBusy(at)
			}
			busy = !busy
		}
		a, b := sim.Time(winLen1)*sim.Microsecond, sim.Time(winLen2)*sim.Microsecond
		if a > b {
			a, b = b, a
		}
		return o.IdleSlots(0, a) <= o.IdleSlots(0, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIdleSlotsWindowBeforeRetainedHistory pins what a window reaching
// back past the retention horizon sees: the channel counts as idle from
// the window start up to the oldest retained transition, whatever its
// real state was (the behaviour Params.HistoryHorizon documents).
func TestIdleSlotsWindowBeforeRetainedHistory(t *testing.T) {
	feed := func(o *IdleObserver) {
		o.OnBusy(1 * sim.Millisecond)
		o.OnIdle(2 * sim.Millisecond)
		o.OnBusy(20 * sim.Millisecond)
		o.OnIdle(21 * sim.Millisecond)
		o.OnBusy(40 * sim.Millisecond) // cutoff 30 ms: history before 21 ms is gone
	}
	pruned := NewIdleObserver(tSlot, tDIFS, 10*sim.Millisecond)
	full := newObs()
	feed(pruned)
	feed(full)
	if got := pruned.transitions[pruned.head:]; len(got) != 2 || got[0].at != 21*sim.Millisecond {
		t.Fatalf("retained %v, want the 21 ms and 40 ms transitions", got)
	}
	// Full history: idle [0,1) 47 slots + busy + idle [2,20) 897 slots + busy.
	// Pruned: [0,21) counted as one idle interval, (21 ms − DIFS)/slot.
	from, to := sim.Time(0), 21*sim.Millisecond
	if got := full.IdleSlots(from, to); got != 944 {
		t.Fatalf("full-history IdleSlots = %d, want 944", got)
	}
	if got := pruned.IdleSlots(from, to); got != 1047 {
		t.Fatalf("pruned IdleSlots = %d, want 1047 (pre-history counted as idle)", got)
	}
	// The retained idle transition at 21 ms still opens a fresh interval
	// that pays its own DIFS.
	if got := pruned.IdleSlots(from, to+tDIFS+5*tSlot); got != 1047+5 {
		t.Fatalf("pruned IdleSlots across the oldest transition = %d, want %d", got, 1047+5)
	}
}

// linearIdleObserver is the IdleObserver as it was before pruning
// advanced a head offset and IdleSlots binary-searched: prune shifts
// the whole retained slice down and IdleSlots scans from the oldest
// retained transition. It is the reference the differential quickcheck
// compares against.
type linearIdleObserver struct {
	slot, difs, horizon sim.Time

	busy        bool
	transitions []transition
}

func (o *linearIdleObserver) record(now sim.Time, busy bool) {
	if busy == o.busy {
		return
	}
	o.busy = busy
	o.transitions = append(o.transitions, transition{at: now, busy: busy})
	cutoff := now - o.horizon
	i := 0
	for i < len(o.transitions)-1 && o.transitions[i+1].at <= cutoff {
		i++
	}
	if i > 0 {
		o.transitions = append(o.transitions[:0], o.transitions[i:]...)
	}
}

func (o *linearIdleObserver) IdleSlots(from, to sim.Time) int {
	slots := 0
	busy := false
	idx := 0
	for idx < len(o.transitions) && o.transitions[idx].at <= from {
		busy = o.transitions[idx].busy
		idx++
	}
	segStart := from
	for segStart < to {
		var segEnd sim.Time
		var nextBusy bool
		if idx < len(o.transitions) && o.transitions[idx].at < to {
			segEnd = o.transitions[idx].at
			nextBusy = o.transitions[idx].busy
			idx++
		} else {
			segEnd = to
			nextBusy = busy
		}
		if !busy {
			span := segEnd - segStart - o.difs
			if span > 0 {
				slots += int(span / o.slot)
			}
		}
		busy = nextBusy
		segStart = segEnd
	}
	return slots
}

// TestQuickIdleObserverMatchesLinearReference drives IdleObserver and
// the linear reference with the same random carrier stream (duplicate
// and simultaneous transitions included) under 1–50 ms horizons, so
// pruning and compaction fire thousands of times. After every
// transition the retained histories must be equal, and IdleSlots must
// agree on windows that start inside the retained history, exactly on a
// transition, and before the oldest retained transition.
func TestQuickIdleObserverMatchesLinearReference(t *testing.T) {
	compactions := 0
	f := func(seed uint64, horizonMs uint8) bool {
		src := rng.New(seed)
		horizon := sim.Time(horizonMs%50+1) * sim.Millisecond
		o := NewIdleObserver(tSlot, tDIFS, horizon)
		ref := &linearIdleObserver{slot: tSlot, difs: tDIFS, horizon: horizon}
		draw := func(n sim.Time) sim.Time { return sim.Time(src.Intn(int(n) + 1)) }
		now := sim.Time(0)
		for i := 0; i < 4000; i++ {
			now += draw(600) * sim.Microsecond
			busy := src.Bool(0.5)
			head := o.head
			if busy {
				o.OnBusy(now)
			} else {
				o.OnIdle(now)
			}
			ref.record(now, busy)
			if o.head < head {
				compactions++
			}
			if !slices.Equal(o.transitions[o.head:], ref.transitions) {
				t.Logf("seed %d horizon %v step %d: retained histories differ", seed, horizon, i)
				return false
			}
			if src.Intn(4) != 0 || len(ref.transitions) == 0 {
				continue
			}
			oldest := ref.transitions[0].at
			onTr := ref.transitions[src.Intn(len(ref.transitions))].at
			before := oldest - draw(horizon)
			if before < 0 {
				before = 0
			}
			starts := [...]sim.Time{oldest + draw(now-oldest), onTr, before}
			for _, from := range starts {
				ends := [...]sim.Time{from + draw(2*horizon), ref.transitions[len(ref.transitions)-1].at, onTr}
				for _, to := range ends {
					if to < from {
						continue
					}
					if got, want := o.IdleSlots(from, to), ref.IdleSlots(from, to); got != want {
						t.Logf("seed %d horizon %v step %d: IdleSlots(%v, %v) = %d, reference %d",
							seed, horizon, i, from, to, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if compactions < 1000 {
		t.Fatalf("only %d compactions fired; the stream no longer exercises them", compactions)
	}
}

// TestIdleObserverSteadyStateAllocatesNothing: once the backing array
// has grown to hold the horizon's worth of history, recording
// transitions and answering IdleSlots never allocate.
func TestIdleObserverSteadyStateAllocatesNothing(t *testing.T) {
	o := NewIdleObserver(tSlot, tDIFS, 10*sim.Millisecond)
	now := sim.Time(0)
	step := func() {
		for i := 0; i < 64; i++ {
			now += 300 * sim.Microsecond
			o.OnBusy(now)
			now += 200 * sim.Microsecond
			o.OnIdle(now)
		}
		o.IdleSlots(now-5*sim.Millisecond, now)
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("steady-state observer allocates %v times per step, want 0", n)
	}
}
