// Package trace records frame-level timelines of a simulation run and
// renders them for humans (aligned text) and tools (pcap export via
// Writer). A Recorder plugs into medium.Medium's Tap; it costs nothing
// when not attached.
package trace

import (
	"fmt"
	"io"
	"strings"

	"dcfguard/internal/frame"
	"dcfguard/internal/sim"
)

// Event is one transmission on the channel.
type Event struct {
	Start, End sim.Time
	Src        frame.NodeID
	Frame      frame.Frame
	// Outcome is filled by the recorder when the addressee reports
	// reception (OutcomeDelivered) or the frame's end passes without a
	// report (OutcomeLost). Broadcast/overheard outcomes are not
	// tracked — DCF control traffic is unicast.
	Outcome Outcome
}

// Outcome classifies what happened to a transmission at its addressee.
type Outcome int

const (
	// OutcomePending is a transmission still on the air.
	OutcomePending Outcome = iota
	// OutcomeDelivered reached its addressee intact.
	OutcomeDelivered
	// OutcomeLost was corrupted or below the addressee's threshold.
	OutcomeLost
)

// String returns a single-character marker used by the text renderer.
func (o Outcome) String() string {
	switch o {
	case OutcomeDelivered:
		return "ok"
	case OutcomeLost:
		return "LOST"
	default:
		return "?"
	}
}

// Recorder accumulates transmissions. Attach Tap to the medium's Tap and
// MarkDelivered to a delivery observation point (e.g. a stats collector
// or mac callback); call Finalize before rendering.
type Recorder struct {
	events []Event
	// cap bounds memory; 0 means unlimited.
	cap int
	// pending lists, per (end, frame), the indices of the recorded
	// transmissions not yet marked delivered, oldest first, so a
	// delivery mark costs O(1) however long the timeline is — including
	// the marks for transmissions past the cap, which were never
	// recorded.
	pending map[pendingKey][]int
}

type pendingKey struct {
	end sim.Time
	f   frame.Frame
}

// New returns a recorder retaining at most capEvents transmissions
// (0 = unlimited).
func New(capEvents int) *Recorder {
	return &Recorder{cap: capEvents, pending: make(map[pendingKey][]int)}
}

// Tap records a transmission; wire it to medium.Medium.Tap.
func (r *Recorder) Tap(src frame.NodeID, f frame.Frame, start, end sim.Time) {
	if r.cap > 0 && len(r.events) >= r.cap {
		return
	}
	k := pendingKey{end, f}
	r.pending[k] = append(r.pending[k], len(r.events))
	r.events = append(r.events, Event{Start: start, End: end, Src: src, Frame: f})
}

// MarkDelivered marks the most recent matching pending transmission as
// delivered. Call it when the addressee decodes the frame.
func (r *Recorder) MarkDelivered(f frame.Frame, end sim.Time) {
	k := pendingKey{end, f}
	idxs := r.pending[k]
	if len(idxs) == 0 {
		return
	}
	// The transmissions in one list share their end, so Finalize turns
	// a prefix of it lost at once: if the newest is not pending, none is.
	ev := &r.events[idxs[len(idxs)-1]]
	if ev.Outcome != OutcomePending {
		return
	}
	ev.Outcome = OutcomeDelivered
	if len(idxs) == 1 {
		delete(r.pending, k)
	} else {
		r.pending[k] = idxs[:len(idxs)-1]
	}
}

// Finalize marks every still-pending transmission whose end has passed
// as lost.
func (r *Recorder) Finalize(now sim.Time) {
	for i := range r.events {
		if r.events[i].Outcome == OutcomePending && r.events[i].End <= now {
			r.events[i].Outcome = OutcomeLost
		}
	}
}

// Events returns the recorded transmissions in start order.
func (r *Recorder) Events() []Event {
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len returns the number of recorded transmissions.
func (r *Recorder) Len() int { return len(r.events) }

// WriteText renders the timeline as one line per transmission:
//
//	12.345678s +0.000276s  3 -> 0  RTS 3->0 seq=17 attempt=2  ok
func (r *Recorder) WriteText(w io.Writer) error {
	for _, ev := range r.events {
		_, err := fmt.Fprintf(w, "%s +%s  %2d -> %-2d  %-40s %s\n",
			ev.Start, sim.Time(ev.End-ev.Start), ev.Src, ev.Frame.Dst,
			ev.Frame.String(), ev.Outcome)
		if err != nil {
			return err
		}
	}
	return nil
}

// Text renders the timeline to a string.
func (r *Recorder) Text() string {
	var b strings.Builder
	// strings.Builder's Write never fails.
	_ = r.WriteText(&b)
	return b.String()
}

// ExchangeSummary counts frame types, a quick integrity view of a trace.
type ExchangeSummary struct {
	RTS, CTS, Data, Ack int
	Delivered, Lost     int
}

// Summarize tallies the recorded transmissions.
func (r *Recorder) Summarize() ExchangeSummary {
	var s ExchangeSummary
	for _, ev := range r.events {
		switch ev.Frame.Type {
		case frame.RTS:
			s.RTS++
		case frame.CTS:
			s.CTS++
		case frame.Data:
			s.Data++
		case frame.Ack:
			s.Ack++
		}
		switch ev.Outcome {
		case OutcomeDelivered:
			s.Delivered++
		case OutcomeLost:
			s.Lost++
		}
	}
	return s
}
