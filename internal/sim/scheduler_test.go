package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestRunExecutesInTimeOrder(t *testing.T) {
	var s Scheduler
	var got []Time
	for _, d := range []Time{5 * Microsecond, 1 * Microsecond, 3 * Microsecond} {
		d := d
		s.After(d, func() { got = append(got, s.Now()) })
	}
	s.Run(Second)
	want := []Time{1 * Microsecond, 3 * Microsecond, 5 * Microsecond}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	var s Scheduler
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Millisecond, func() { order = append(order, i) })
	}
	s.Run(Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	var s Scheduler
	fired := false
	ev := s.After(Millisecond, func() { fired = true })
	s.Cancel(ev)
	s.Run(Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Cancelling again must be a no-op, as must a zero ref.
	s.Cancel(ev)
	s.Cancel(EventRef{})
}

func TestCancelMiddleOfHeap(t *testing.T) {
	var s Scheduler
	var fired []int
	events := make([]EventRef, 20)
	for i := range events {
		i := i
		events[i] = s.At(Time(i)*Microsecond, func() { fired = append(fired, i) })
	}
	for i := 1; i < 20; i += 2 {
		s.Cancel(events[i])
	}
	s.Run(Second)
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10", len(fired))
	}
	for _, v := range fired {
		if v%2 != 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestRunHorizon(t *testing.T) {
	var s Scheduler
	fired := 0
	s.At(1*Second, func() { fired++ })
	s.At(3*Second, func() { fired++ })
	s.Run(2 * Second)
	if fired != 1 {
		t.Fatalf("fired %d events before horizon, want 1", fired)
	}
	if s.Now() != 2*Second {
		t.Fatalf("clock at %v after Run, want 2s", s.Now())
	}
	s.Run(4 * Second)
	if fired != 2 {
		t.Fatalf("fired %d events total, want 2", fired)
	}
}

func TestClockAdvancesOnlyToHorizon(t *testing.T) {
	var s Scheduler
	s.Run(5 * Second)
	if s.Now() != 5*Second {
		t.Fatalf("empty Run left clock at %v, want 5s", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var s Scheduler
	s.At(Second, func() {})
	s.Run(2 * Second)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(Millisecond, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	var s Scheduler
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestEventsScheduledDuringRun(t *testing.T) {
	var s Scheduler
	var times []Time
	s.After(Microsecond, func() {
		times = append(times, s.Now())
		s.After(Microsecond, func() {
			times = append(times, s.Now())
		})
	})
	s.Run(Second)
	if len(times) != 2 || times[0] != Microsecond || times[1] != 2*Microsecond {
		t.Fatalf("chained events fired at %v", times)
	}
}

func TestStop(t *testing.T) {
	var s Scheduler
	fired := 0
	s.After(1*Microsecond, func() { fired++; s.Stop() })
	s.After(2*Microsecond, func() { fired++ })
	s.Run(Second)
	if fired != 1 {
		t.Fatalf("fired %d events after Stop, want 1", fired)
	}
}

func TestDrain(t *testing.T) {
	var s Scheduler
	fired := 0
	s.At(10*Second, func() { fired++ })
	s.At(20*Second, func() { fired++ })
	s.Drain()
	if fired != 2 {
		t.Fatalf("Drain fired %d, want 2", fired)
	}
	if s.Now() != 20*Second {
		t.Fatalf("clock at %v after Drain", s.Now())
	}
}

func TestPending(t *testing.T) {
	var s Scheduler
	if s.Pending() != 0 {
		t.Fatal("fresh scheduler has pending events")
	}
	s.At(Second, func() {})
	s.At(2*Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Run(Second)
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after partial run, want 1", s.Pending())
	}
}

func TestEventsFiredCounter(t *testing.T) {
	var s Scheduler
	for i := 0; i < 5; i++ {
		s.At(Time(i)*Microsecond, func() {})
	}
	s.Run(Second)
	if s.EventsFired() != 5 {
		t.Fatalf("EventsFired = %d, want 5", s.EventsFired())
	}
}

func TestQuickHeapOrdering(t *testing.T) {
	f := func(delays []uint32) bool {
		var s Scheduler
		var fired []Time
		for _, d := range delays {
			s.After(Time(d%1000000)*Microsecond, func() {
				fired = append(fired, s.Now())
			})
		}
		s.Drain()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimerFires(t *testing.T) {
	var s Scheduler
	fired := false
	tm := NewTimer(&s, func() { fired = true })
	tm.Reset(Millisecond)
	if !tm.Armed() {
		t.Fatal("timer not armed after Reset")
	}
	if tm.Deadline() != Millisecond {
		t.Fatalf("Deadline = %v, want 1ms", tm.Deadline())
	}
	s.Run(Second)
	if !fired {
		t.Fatal("timer did not fire")
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimerStop(t *testing.T) {
	var s Scheduler
	fired := false
	tm := NewTimer(&s, func() { fired = true })
	tm.Reset(Millisecond)
	tm.Stop()
	s.Run(Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	tm.Stop() // no-op on unarmed timer
}

func TestTimerResetReplacesPending(t *testing.T) {
	var s Scheduler
	var at Time
	tm := NewTimer(&s, func() { at = s.Now() })
	tm.Reset(Millisecond)
	tm.Reset(5 * Millisecond)
	s.Run(Second)
	if at != 5*Millisecond {
		t.Fatalf("timer fired at %v, want 5ms (reset must replace pending expiry)", at)
	}
}

func TestTimerResetAt(t *testing.T) {
	var s Scheduler
	var at Time
	tm := NewTimer(&s, func() { at = s.Now() })
	s.At(Millisecond, func() { tm.ResetAt(3 * Millisecond) })
	s.Run(Second)
	if at != 3*Millisecond {
		t.Fatalf("timer fired at %v, want 3ms", at)
	}
}

func TestTimerDeadlinePanicsUnarmed(t *testing.T) {
	var s Scheduler
	tm := NewTimer(&s, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Deadline on unarmed timer did not panic")
		}
	}()
	_ = tm.Deadline()
}

func TestTimeHelpers(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Fatal("time unit constants inconsistent")
	}
	tt := Time(1500 * Millisecond)
	if tt.Seconds() != 1.5 {
		t.Fatalf("Seconds() = %v", tt.Seconds())
	}
	if got := tt.String(); got != "1.500000s" {
		t.Fatalf("String() = %q", got)
	}
	if Time(0).Add(tt.Duration()) != tt {
		t.Fatal("Add/Duration roundtrip failed")
	}
	if tt.Sub(Time(500*Millisecond)) != Second.Duration() {
		t.Fatal("Sub failed")
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	var s Scheduler
	for i := 0; i < b.N; i++ {
		s.After(Microsecond, func() {})
		s.Run(s.Now() + Microsecond)
	}
}

// TestSubstepFIFO: inside one FIFO queue entry, SubstepFIFO counts one
// fired event per later member of the batch, and it refuses a keyed
// scheduler, where Substep must name each key.
func TestSubstepFIFO(t *testing.T) {
	var s Scheduler
	s.AtArg(Millisecond, func(any, Time) {
		s.SubstepFIFO()
		s.SubstepFIFO()
	}, nil)
	s.Run(Millisecond)
	if s.EventsFired() != 3 {
		t.Errorf("EventsFired = %d, want 3", s.EventsFired())
	}

	var k Scheduler
	k.EnableKeyed(4)
	defer func() {
		if recover() == nil {
			t.Error("SubstepFIFO on a keyed scheduler did not panic")
		}
	}()
	k.SubstepFIFO()
}
