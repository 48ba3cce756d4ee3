package sim

import (
	"fmt"
	"sync/atomic"
)

// Event is a scheduled callback. Events are ordered by time; events with
// equal times fire in scheduling order (FIFO), which keeps runs
// deterministic.
//
// Event records live in the Scheduler's slab — a growable flat []Event
// arena — and are addressed by uint32 index, never by pointer: the slab
// may move when it grows, and fired or cancelled records are recycled
// through an intrusive free list. User code therefore never holds a
// *Event — it holds an EventRef, whose generation check makes stale
// handles inert across recycling and slab growth alike.
type Event struct {
	when Time
	seq  uint64
	// fn is the closure form of the callback; afn+arg the allocation-free
	// form (exactly one of fn and afn is set while scheduled).
	fn  func()
	afn func(arg any, when Time)
	arg any

	// gen is incremented every time the record is released (fired or
	// cancelled), invalidating outstanding EventRefs. A matching gen
	// therefore means "currently scheduled".
	gen uint32
	// next links the free list while the record is pooled: the index+1
	// of the next free record, 0 terminating the list.
	next uint32
}

// EventRef is a by-value handle to a scheduled event. The zero value is
// a valid "no event" reference: Cancelled reports true and Cancel is a
// no-op. A ref becomes stale the moment its event fires or is cancelled;
// every operation on a stale ref is safe (the generation check detects
// recycling), so callers can cancel unconditionally.
type EventRef struct {
	s   *Scheduler
	idx uint32
	gen uint32
}

// Cancelled reports whether the event has fired, been cancelled, or was
// never scheduled.
func (r EventRef) Cancelled() bool {
	return r.s == nil || r.s.slab[r.idx].gen != r.gen
}

// When returns the simulated instant the event is scheduled for. It
// panics on a stale or zero ref; check Cancelled first.
func (r EventRef) When() Time {
	if r.Cancelled() {
		panic("sim: When on a fired, cancelled, or zero EventRef")
	}
	return r.s.slab[r.idx].when
}

// Scheduler is the discrete-event executor. The zero value is ready to
// use. Scheduler is not safe for concurrent use; a run owns its
// scheduler exclusively.
//
// Storage layout: event records live in the slab and are recycled
// through an intrusive free list, so a steady-state run allocates
// nothing per event. The priority queue holds compact 24-byte
// (when, seq, idx, gen) entries by value — comparisons never chase an
// event pointer — in a calendar queue (see calendar.go). Cancellation
// is lazy: Cancel releases the slab record (bumping its generation) and
// leaves the queue entry in place; the pop loop skips entries whose
// generation no longer matches.
type Scheduler struct {
	now     Time
	q       *calendarQueue
	nextSeq uint64
	fired   uint64
	stopped bool

	// slab is the flat event arena; freeHead/freeCount the intrusive
	// free list over it (index+1 links, 0 = empty).
	slab      []Event
	freeHead  uint32
	freeCount int

	// live counts scheduled (not yet fired or cancelled) events; stale
	// counts lazily-deleted queue entries awaiting a skip at pop.
	live  int
	stale int

	// scratch is reused by compact().
	scratch []entry

	// Keyed ordering state (see key.go). When keyed is set, seq fields
	// carry explicit partition-invariant keys instead of the FIFO
	// counter: curOwner is the node context implicit scheduling charges
	// its key to, curKey the key of the event currently firing (0 between
	// events — the barrier fan-in reads it to tag side-channel emissions),
	// and ownerCtr holds each owner's private counter.
	keyed    bool
	curOwner int
	curKey   uint64
	ownerCtr []uint64

	// interrupted is the one concurrency-safe bit of scheduler state:
	// Interrupt (callable from any goroutine) sets it, and Run polls it
	// every interruptStride queue pops — the hook that lets a wall-time
	// watchdog cancel a hung run without the kernel ever reading the
	// host clock itself.
	interrupted atomic.Bool
}

// interruptStride is how many queue pops Run makes between polls of
// the interrupted flag: frequent enough to stop a runaway zero-time
// event loop within microseconds, rare enough that the atomic load
// vanishes against event dispatch cost. Pops, not fired events, set the
// pace: one pop of a batched keyed event (see Substep) fires several,
// and a fired-count stride could step over every poll.
const interruptStride = 1024

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// EventsFired returns the number of events executed so far.
func (s *Scheduler) EventsFired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled.
func (s *Scheduler) Pending() int { return s.live }

// PoolSize returns the number of recycled event records currently on
// the slab's free list (observability for pool tests and benchmarks).
func (s *Scheduler) PoolSize() int { return s.freeCount }

// ensureQueue builds the queue on first use, keeping the zero
// Scheduler ready to use.
func (s *Scheduler) ensureQueue() {
	if s.q == nil {
		s.q = newCalendarQueue()
	}
}

// alloc takes a record from the slab free list, or grows the slab.
func (s *Scheduler) alloc(when Time) uint32 {
	var idx uint32
	if s.freeHead != 0 {
		idx = s.freeHead - 1
		s.freeHead = s.slab[idx].next
		s.freeCount--
	} else {
		s.slab = append(s.slab, Event{})
		idx = uint32(len(s.slab) - 1)
	}
	ev := &s.slab[idx]
	ev.when = when
	if s.keyed {
		// The caller assigns the key: At/AtArg charge the current
		// owner's counter, AtKeyedArg carries an explicit fan key.
		ev.seq = 0
	} else {
		ev.seq = s.nextSeq
		s.nextSeq++
	}
	return idx
}

// release returns a fired or cancelled record to the free list. The
// generation bump is what makes every outstanding EventRef (and every
// queue entry) to it stale.
func (s *Scheduler) release(idx uint32) {
	ev := &s.slab[idx]
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.gen++
	ev.next = s.freeHead
	s.freeHead = idx + 1
	s.freeCount++
}

// At schedules fn to run at the absolute simulated instant when.
// Scheduling in the past panics: it always indicates a model bug, and
// silently reordering time would corrupt every downstream measurement.
func (s *Scheduler) At(when Time, fn func()) EventRef {
	if when < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", when, s.now))
	}
	s.ensureQueue()
	idx := s.alloc(when)
	ev := &s.slab[idx]
	if s.keyed {
		ev.seq = s.nextOwnerKey()
	}
	ev.fn = fn
	s.q.push(entry{when: when, seq: ev.seq, idx: idx, gen: ev.gen})
	s.live++
	return EventRef{s: s, idx: idx, gen: ev.gen}
}

// AtArg schedules fn(arg, when) at the absolute instant when. It exists
// for hot paths: passing a package-level func plus a pointer argument
// allocates nothing, where an equivalent capturing closure would heap-
// allocate per call.
func (s *Scheduler) AtArg(when Time, fn func(arg any, when Time), arg any) EventRef {
	if when < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", when, s.now))
	}
	s.ensureQueue()
	idx := s.alloc(when)
	ev := &s.slab[idx]
	if s.keyed {
		ev.seq = s.nextOwnerKey()
	}
	ev.afn = fn
	ev.arg = arg
	s.q.push(entry{when: when, seq: ev.seq, idx: idx, gen: ev.gen})
	s.live++
	return EventRef{s: s, idx: idx, gen: ev.gen}
}

// After schedules fn to run d after the current instant.
func (s *Scheduler) After(d Time, fn func()) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event with negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// AfterArg schedules fn(arg, when) to run d after the current instant.
func (s *Scheduler) AfterArg(d Time, fn func(arg any, when Time), arg any) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event with negative delay %v", d))
	}
	return s.AtArg(s.now+d, fn, arg)
}

// Cancel removes a pending event. Cancelling an already-fired,
// already-cancelled, or zero ref is a no-op, so callers can cancel
// unconditionally; the generation check guarantees a stale ref can never
// cancel an event that reused the same storage.
//
// Cancellation is lazy: the queue entry stays behind and is skipped when
// it reaches the front. A timer-heavy workload that cancels far more
// than it fires is bounded by compact(), which rebuilds the queue once
// stale entries outnumber live ones.
func (s *Scheduler) Cancel(r EventRef) {
	if r.Cancelled() {
		return
	}
	s.release(r.idx)
	s.live--
	s.stale++
	if s.stale > 64 && s.stale > 2*s.live {
		s.compact()
	}
}

// compact drains the queue and re-pushes only the live entries,
// reclaiming the space held by lazily-deleted ones.
func (s *Scheduler) compact() {
	s.scratch = s.scratch[:0]
	for {
		e, ok := s.q.pop()
		if !ok {
			break
		}
		if s.slab[e.idx].gen == e.gen {
			s.scratch = append(s.scratch, e)
		}
	}
	for _, e := range s.scratch {
		s.q.push(e)
	}
	s.stale = 0
}

// Stop makes Run return after the currently executing event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Interrupt requests that Run (or Drain) stop at an event boundary.
// Unlike every other method it is safe to call from another goroutine;
// the per-seed watchdog in internal/experiment uses it to cancel runs
// that exceed their wall-time budget. The flag is sticky: once set, Run
// refuses to make progress until ClearInterrupt.
func (s *Scheduler) Interrupt() { s.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (s *Scheduler) Interrupted() bool { return s.interrupted.Load() }

// ClearInterrupt re-arms an interrupted scheduler (tests only; a
// cancelled run's partial state is not meaningful to resume).
func (s *Scheduler) ClearInterrupt() { s.interrupted.Store(false) }

// Run executes events in time order until the queue is empty, Stop is
// called, or the next event lies strictly after until. The clock is left
// at until (or at the last fired event if the queue drained first, never
// beyond until).
func (s *Scheduler) Run(until Time) {
	s.stopped = false
	for pops := 0; s.live > 0 && !s.stopped; pops++ {
		if pops&(interruptStride-1) == 0 && s.interrupted.Load() {
			return // cancelled: leave the clock at the last fired event
		}
		e, ok := s.q.pop()
		if !ok {
			break
		}
		if s.slab[e.idx].gen != e.gen {
			s.stale--
			continue // lazily-deleted entry
		}
		if e.when > until {
			s.q.push(e) // at most once per Run call
			break
		}
		s.fire(e)
	}
	if s.now < until {
		s.now = until
	}
}

// RunWindow executes events strictly before horizon, in (when, seq)
// order. Unlike Run it never advances the clock past the last fired
// event: the shard barrier needs the clock to stay at (or before) every
// instant a cross-shard message may still be injected at, and horizon
// is by construction ≤ any such instant. Interrupt is polled on the
// same stride as Run, so a watchdog stops a window mid-drain.
func (s *Scheduler) RunWindow(horizon Time) {
	s.stopped = false
	for pops := 0; s.live > 0 && !s.stopped; pops++ {
		if pops&(interruptStride-1) == 0 && s.interrupted.Load() {
			return
		}
		e, ok := s.q.pop()
		if !ok {
			break
		}
		if s.slab[e.idx].gen != e.gen {
			s.stale--
			continue
		}
		if e.when >= horizon {
			s.q.push(e) // at most once per RunWindow call
			break
		}
		s.fire(e)
	}
}

// NextTime reports the instant of the earliest pending event without
// firing it, skipping (and reclaiming) lazily-cancelled entries. The
// shard coordinator uses it to derive each window's horizon.
func (s *Scheduler) NextTime() (Time, bool) {
	if s.live == 0 {
		// Also covers a scheduler that never had an event (nil queue).
		return 0, false
	}
	for {
		e, ok := s.q.pop()
		if !ok {
			return 0, false
		}
		if s.slab[e.idx].gen != e.gen {
			s.stale--
			continue
		}
		s.q.push(e)
		return e.when, true
	}
}

// Drain executes all remaining events regardless of time. Intended for
// tests; experiment runs use Run with a horizon.
func (s *Scheduler) Drain() {
	s.stopped = false
	for pops := 0; s.live > 0 && !s.stopped; pops++ {
		if pops&(interruptStride-1) == 0 && s.interrupted.Load() {
			return
		}
		e, ok := s.q.pop()
		if !ok {
			break
		}
		if s.slab[e.idx].gen != e.gen {
			s.stale--
			continue
		}
		s.fire(e)
	}
}

// fire recycles the popped entry's slab record and runs its callback.
// The callback state is copied out first — and the record released
// before the call — so the callback is free to schedule new events that
// reuse this very record or grow (and move) the slab.
func (s *Scheduler) fire(e entry) {
	ev := &s.slab[e.idx]
	fn, afn, arg, when := ev.fn, ev.afn, ev.arg, ev.when
	if s.keyed {
		// Everything the callback schedules is charged to the owner the
		// firing event's key names, so implicit rescheduling (timers,
		// backoffs) stays keyed to its node without the MAC layer ever
		// knowing keys exist. The key itself is published for CurrentKey:
		// barrier-merged side channels (trace/obs fan-in) tag emissions
		// with it to reconstruct the serial emission order.
		s.curOwner = ownerOfKey(ev.seq)
		s.curKey = ev.seq
	}
	s.release(e.idx)
	s.live--
	s.now = when
	s.fired++
	if afn != nil {
		afn(arg, when)
	} else {
		fn()
	}
}

// SubstepFIFO is Substep for a non-keyed scheduler: inside one queue
// entry that stands for several FIFO events at one instant (the
// medium's v2 fan run), it counts the next one as fired. The caller
// keeps the equivalence: the batch replaces entries that would have
// held consecutive seqs. It panics on a keyed scheduler.
func (s *Scheduler) SubstepFIFO() {
	if s.keyed {
		panic("sim: SubstepFIFO on a keyed scheduler")
	}
	s.fired++
}
