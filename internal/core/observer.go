package core

import (
	"fmt"
	"sort"

	"dcfguard/internal/sim"
)

// IdleObserver reconstructs, from the receiver's own carrier-sense
// transitions, the number of backoff slots a sender could have counted
// in a time window — the receiver-side measurement B_act of §4.1.
//
// The counting rule mirrors the sender's countdown: within each maximal
// idle interval, the first DIFS is consumed before slots start counting,
// and only whole slots count.
//
// Recording a transition and answering IdleSlots both cost time
// independent of how much history the horizon retains: pruning advances
// a head offset instead of shifting the slice, and IdleSlots
// binary-searches for the window start (DESIGN.md §6, "Idle history").
type IdleObserver struct {
	slot    sim.Time
	difs    sim.Time
	horizon sim.Time

	busy bool
	// transitions[head:] is the retained history, ordered by time. The
	// pruned prefix transitions[:head] is reclaimed by copying the live
	// part down once the prefix is at least as long, so each transition
	// is copied O(1) times on average and the backing array stops
	// growing once it holds about two horizons of history.
	transitions []transition
	head        int
}

type transition struct {
	at   sim.Time
	busy bool
}

// NewIdleObserver returns an observer with the given slot time, DIFS and
// retention horizon. The channel is assumed idle at time zero.
func NewIdleObserver(slot, difs, horizon sim.Time) *IdleObserver {
	if slot <= 0 || difs < 0 || horizon <= 0 {
		panic(fmt.Sprintf("core: IdleObserver(slot=%v, difs=%v, horizon=%v)", slot, difs, horizon))
	}
	return &IdleObserver{slot: slot, difs: difs, horizon: horizon}
}

// OnBusy records a carrier busy transition at now.
func (o *IdleObserver) OnBusy(now sim.Time) { o.record(now, true) }

// OnIdle records a carrier idle transition at now.
func (o *IdleObserver) OnIdle(now sim.Time) { o.record(now, false) }

func (o *IdleObserver) record(now sim.Time, busy bool) {
	if busy == o.busy {
		return
	}
	o.busy = busy
	o.transitions = append(o.transitions, transition{at: now, busy: busy})
	o.prune(now)
}

// prune drops transitions that ended before the retention horizon,
// always keeping at least one so the state at any retained instant is
// reconstructible.
func (o *IdleObserver) prune(now sim.Time) {
	cutoff := now - o.horizon
	ts := o.transitions
	for o.head < len(ts)-1 && ts[o.head+1].at <= cutoff {
		o.head++
	}
	if o.head > 0 && o.head >= len(ts)-o.head {
		o.transitions = ts[:copy(ts, ts[o.head:])]
		o.head = 0
	}
}

// Busy reports the channel state as last recorded.
func (o *IdleObserver) Busy() bool { return o.busy }

// IdleSlots returns the number of backoff slots available in [from, to):
// for every maximal idle interval overlapping the window, the interval's
// first DIFS is discarded (clipped to the window) and the remainder is
// divided into whole slots.
//
// The DIFS of an idle interval that began before the window still counts
// against the window only for the portion inside it: the sender's DIFS
// wait after its ACK falls exactly at the window start, which is why the
// window boundary is treated as the start of a fresh idle interval.
//
// A window that starts before the oldest retained transition treats the
// channel as idle from `from` up to that transition, whatever the state
// really was (see Params.HistoryHorizon).
func (o *IdleObserver) IdleSlots(from, to sim.Time) int {
	if to < from {
		panic(fmt.Sprintf("core: IdleSlots window [%v, %v) inverted", from, to))
	}
	live := o.transitions[o.head:]
	// idx is the first transition after from; the one before it, if
	// any, gives the state at the window start.
	idx := sort.Search(len(live), func(i int) bool { return live[i].at > from })
	busy := false
	if idx > 0 {
		busy = live[idx-1].busy
	}
	slots := 0
	segStart := from
	for segStart < to {
		var segEnd sim.Time
		var nextBusy bool
		if idx < len(live) && live[idx].at < to {
			segEnd = live[idx].at
			nextBusy = live[idx].busy
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
