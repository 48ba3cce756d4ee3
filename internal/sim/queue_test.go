package sim

import (
	"testing"
	"testing/quick"
)

// TestStaleRefAcrossSlabGrowth pins the slab-kernel guarantee the old
// pointer-based pool got for free: a ref held across arbitrary slab
// growth (and the reallocation/moves growth implies) stays exactly as
// inert as it was. Refs are indices, so a moved slab must not
// resurrect or misdirect them.
func TestStaleRefAcrossSlabGrowth(t *testing.T) {
	var s Scheduler
	fired := false
	stale := s.After(Microsecond, func() { fired = true })
	s.Run(Second)
	if !fired || !stale.Cancelled() {
		t.Fatal("premise: first event did not fire")
	}

	// Grow the slab well past any realistic append-in-place: the
	// backing array is guaranteed to have been reallocated.
	refs := make([]EventRef, 0, 4096)
	for i := 0; i < 4096; i++ {
		refs = append(refs, s.After(Microsecond, func() {}))
	}
	if stale.Cancelled() != true {
		t.Fatal("stale ref came back to life across slab growth")
	}
	s.Cancel(stale) // must not disturb any live event
	for i, r := range refs {
		if r.Cancelled() {
			t.Fatalf("live ref %d reported Cancelled after stale cancel across growth", i)
		}
	}
	s.Run(2 * Second)
	for i, r := range refs {
		if !r.Cancelled() {
			t.Fatalf("ref %d still live after horizon", i)
		}
	}
}

// TestCancelAfterRecycle drives the cancel-after-recycle interleaving
// explicitly: cancel a ref whose slab slot has been recycled (possibly
// several times) and confirm only the original event was affected.
func TestCancelAfterRecycle(t *testing.T) {
	var s Scheduler
	stale := s.After(Microsecond, func() { t.Fatal("cancelled event fired") })
	s.Cancel(stale)

	// Recycle the same slot through several generations.
	for cycle := 0; cycle < 5; cycle++ {
		fired := false
		r := s.After(Microsecond, func() { fired = true })
		if r.idx != stale.idx {
			t.Fatalf("cycle %d: slot %d not recycled (got %d)", cycle, stale.idx, r.idx)
		}
		s.Cancel(stale) // a generation (or five) behind: must be inert
		if r.Cancelled() {
			t.Fatalf("cycle %d: stale cancel killed the recycled occupant", cycle)
		}
		if cycle%2 == 0 {
			s.Run(s.Now() + Microsecond)
			if !fired {
				t.Fatalf("cycle %d: recycled event did not fire", cycle)
			}
		} else {
			s.Cancel(r)
		}
	}
}

// queueOp is the fuzzed entry-stream alphabet for the equivalence check.
type queueOp struct {
	Kind  uint8  // %4: 0,1 = push a burst, 2 = pop, 3 = pop and push back
	Burst uint8  // the burst pushes 1 + Burst%32 entries
	Delay uint16 // push times lie Delay%512 µs after the last popped instant, spread by the burst index
	Key   uint16 // nonzero: seqs in keyed-scheduler shape (out of push order) instead of FIFO
}

// TestQueueEquivalenceQuick pins the calendar queue's pop order to the
// heap oracle: the same random entry stream, pushed into both, must pop
// identical entries at every step. The stream covers what the scheduler
// does to its queue — FIFO and keyed seqs, same-instant bursts large
// enough to force resizes, and Run's push-back of a popped entry.
func TestQueueEquivalenceQuick(t *testing.T) {
	f := func(ops []queueOp) bool {
		cal, ref := newCalendarQueue(), &heapQueue{}
		var now Time
		var seq uint64
		popBoth := func() (entry, bool, bool) {
			c, cok := cal.pop()
			h, hok := ref.pop()
			return c, cok, cok == hok && c == h && cal.len() == ref.len()
		}
		for _, op := range ops {
			switch op.Kind % 4 {
			case 0, 1:
				for i := 0; i <= int(op.Burst%32); i++ {
					seq++
					e := entry{when: now + Time(op.Delay%512+uint16(i%4))*Microsecond, seq: seq, idx: uint32(seq)}
					if op.Key != 0 {
						// Keys sort by their high bits, not push order;
						// the counter in the low bits keeps them unique.
						e.seq = uint64(op.Key^uint16(i*7919))<<32 | seq
					}
					cal.push(e)
					ref.push(e)
				}
			case 2, 3:
				e, ok, same := popBoth()
				if !same {
					return false
				}
				if !ok {
					continue
				}
				now = e.when
				if op.Kind%4 == 3 {
					cal.push(e)
					ref.push(e)
				}
			}
		}
		for {
			_, ok, same := popBoth()
			if !same {
				return false
			}
			if !ok {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueEquivalenceFIFOBurst checks the tie-break directly: 500
// entries at two interleaved instants must pop from the calendar
// exactly as from the heap — every t=0 entry first, each instant in
// push (seq) order.
func TestQueueEquivalenceFIFOBurst(t *testing.T) {
	cal, ref := newCalendarQueue(), &heapQueue{}
	for i := 0; i < 500; i++ {
		e := entry{when: Time(i%2) * Microsecond, seq: uint64(i), idx: uint32(i)}
		cal.push(e)
		ref.push(e)
	}
	for pos := 0; pos < 500; pos++ {
		c, cok := cal.pop()
		h, hok := ref.pop()
		if !cok || !hok || c != h {
			t.Fatalf("pop %d: calendar %+v (%v), heap %+v (%v)", pos, c, cok, h, hok)
		}
		// Evens (t=0) pop first in order, then the odds (t=1µs).
		want := 2*pos%500 + pos/250
		if int(c.seq) != want {
			t.Fatalf("pop %d: seq %d, want %d", pos, c.seq, want)
		}
	}
	if _, ok := cal.pop(); ok {
		t.Fatal("calendar holds entries past the 500 pushed")
	}
}

// TestCalendarResizeCycles walks the calendar through growth and
// shrink: a large burst (forcing doublings), then a drain (forcing
// halvings), then a second burst — popping in order throughout.
func TestCalendarResizeCycles(t *testing.T) {
	var s Scheduler
	fired := 0
	last := Time(-1)
	check := func() {
		if s.Now() < last {
			t.Fatalf("time went backwards: %v after %v", s.Now(), last)
		}
		last = s.Now()
		fired++
	}
	for i := 0; i < 3000; i++ {
		s.After(Time(i%977)*Microsecond, check)
	}
	s.Run(s.Now() + 500*Microsecond)
	for i := 0; i < 100; i++ {
		s.After(Time(i)*Millisecond, check)
	}
	s.Drain()
	if fired != 3100 {
		t.Fatalf("fired %d of 3100", fired)
	}
}

// TestCompactBoundsStaleEntries pins the lazy-deletion safety valve: a
// workload that cancels far more than it fires must not accumulate
// unbounded queue entries.
func TestCompactBoundsStaleEntries(t *testing.T) {
	var s Scheduler
	keep := s.After(Second, func() {})
	for i := 0; i < 100_000; i++ {
		r := s.After(Millisecond, func() { t.Fatal("cancelled event fired") })
		s.Cancel(r)
	}
	if qlen := s.q.len(); qlen > 1024 {
		t.Fatalf("queue holds %d entries for 1 live event; compaction failed", qlen)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.Cancel(keep)
	s.Drain()
}

// heapQueue is the test oracle for calendarQueue: an implicit 4-ary
// min-heap over []entry, simple enough to be obviously right. It was
// the scheduler's queue before the calendar won the bench suite at
// every measured size (DESIGN.md §10); the equivalence tests below pin
// the calendar's pop order to it.
type heapQueue struct {
	a []entry
}

func (h *heapQueue) len() int { return len(h.a) }

// push appends e and sifts it toward the root.
func (h *heapQueue) push(e entry) {
	i := len(h.a)
	h.a = append(h.a, e)
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(e, h.a[parent]) {
			break
		}
		h.a[i] = h.a[parent]
		i = parent
	}
	h.a[i] = e
}

// pop removes and returns the minimum entry.
func (h *heapQueue) pop() (entry, bool) {
	n := len(h.a)
	if n == 0 {
		return entry{}, false
	}
	root := h.a[0]
	moved := h.a[n-1]
	n--
	h.a = h.a[:n]
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if entryLess(h.a[c], h.a[min]) {
					min = c
				}
			}
			if !entryLess(h.a[min], moved) {
				break
			}
			h.a[i] = h.a[min]
			i = min
		}
		h.a[i] = moved
	}
	return root, true
}
