package core

import (
	"fmt"
	"sort"

	"dcfguard/internal/frame"
	"dcfguard/internal/mac"
	"dcfguard/internal/medium"
	"dcfguard/internal/sim"
)

// Watchdog is the third-party observer §4.4 calls for to detect
// sender–receiver collusion. It is a passive radio (a medium.Listener
// that never transmits) that overhears the exchanges of nearby pairs
// and re-runs the receiver's own arithmetic from outside:
//
//   - it reads the assignments the receiver advertises in CTS/ACK
//     frames and counts idle slots on its own carrier sense, giving it
//     an independent per-packet view of what the pair actually waited
//     (B_act) and what the receiver demanded (the assignment);
//   - a colluding pair is one that *persistently* both waits almost
//     nothing and is asked to wait almost nothing: mean observed B_act
//     and mean assignment both below a floor (CWmin/8) over the last
//     4·W packets. A deviation-based test cannot work here — a
//     colluding receiver keeps assignments tiny, so the sender's
//     "deviations" from them are tiny too. The long window and low
//     floor keep the false-positive probability of honest uniform
//     [0, CWmin] assignments negligible (≈ 5.6σ below the mean);
//   - the two halves separate the cases: an honest receiver facing a
//     cheating sender grows its assignments through penalties (mean
//     assignment high ⇒ sender misbehavior, not collusion), and an
//     honest pair's mean B_act tracks the CWmin/2 expectation of random
//     assignments.
//
// The watchdog also counts waived penalties (a deviation not followed
// by an at-least-half-as-large assignment) as supplementary evidence
// exposed via PairStats.
type Watchdog struct {
	params    Params
	macParams mac.Params
	bitRate   int64
	observer  *IdleObserver

	pairs map[pairKey]*pairState

	// OnCollusion, if non-nil, fires when a pair is first flagged.
	OnCollusion func(sender, receiver frame.NodeID, now sim.Time)
}

type pairKey struct {
	sender, receiver frame.NodeID
}

type pairState struct {
	// assigned is the last assignment overheard (receiver → sender);
	// -1 before the first one.
	assigned int
	// mark is the end of the last overheard ACK for the pair.
	mark    sim.Time
	hasMark bool

	// lastBAct is the idle-slot count measured at the pair's latest
	// RTS, awaiting the exchange's completing ACK.
	lastBAct int
	haveBAct bool
	// bActs and assigns are rolling windows (length ≤ 4·W) of completed
	// exchanges' observed backoffs and advertised assignments.
	bActs   []int
	assigns []int

	deviated int // packets with detected deviation
	// unpenalised counts deviations the receiver did not follow with a
	// sufficiently large assignment.
	unpenalised int
	// pendingDeviation is the deviation awaiting the next assignment.
	pendingDeviation float64
	awaitingPenalty  bool

	colluding bool
	packets   int
}

var _ medium.Listener = (*Watchdog)(nil)

// NewWatchdog builds a passive observer with the given protocol
// parameters (it needs α, W, the MAC timing and the channel bit rate to
// reproduce the receiver's arithmetic).
func NewWatchdog(params Params, macParams mac.Params, bitRate int64) *Watchdog {
	if err := params.Validate(); err != nil {
		panic(fmt.Sprintf("core: watchdog: %v", err))
	}
	if err := macParams.Validate(); err != nil {
		panic(fmt.Sprintf("core: watchdog: %v", err))
	}
	if bitRate <= 0 {
		panic(fmt.Sprintf("core: watchdog: bit rate %d", bitRate))
	}
	return &Watchdog{
		params:    params,
		macParams: macParams,
		bitRate:   bitRate,
		observer:  NewIdleObserver(macParams.SlotTime, macParams.DIFS(), params.HistoryHorizon),
		pairs:     make(map[pairKey]*pairState),
	}
}

func (w *Watchdog) pair(s, r frame.NodeID) *pairState {
	k := pairKey{sender: s, receiver: r}
	p, ok := w.pairs[k]
	if !ok {
		p = &pairState{assigned: -1}
		w.pairs[k] = p
	}
	return p
}

// CarrierBusy implements medium.Listener.
func (w *Watchdog) CarrierBusy(now sim.Time) { w.observer.OnBusy(now) }

// CarrierIdle implements medium.Listener.
func (w *Watchdog) CarrierIdle(now sim.Time) { w.observer.OnIdle(now) }

// FrameReceived implements medium.Listener: the watchdog overhears
// everything decodable at its position.
func (w *Watchdog) FrameReceived(f frame.Frame, now sim.Time) {
	switch f.Type {
	case frame.RTS:
		w.onRTS(f, now)
	case frame.CTS, frame.Ack:
		w.onAssignment(f, now)
	case frame.Data:
	}
}

func (w *Watchdog) onRTS(rts frame.Frame, end sim.Time) {
	p := w.pair(rts.Src, rts.Dst)
	if p.assigned < 0 || !p.hasMark {
		return
	}
	start := end - rts.Airtime(w.bitRate)
	bAct := w.observer.IdleSlots(p.mark, start)
	bExp := ExpectedBackoff(p.assigned, rts.Src, int(rts.Attempt), w.macParams, true)

	p.packets++
	p.lastBAct = bAct
	p.haveBAct = true
	if float64(bAct) < w.params.Alpha*float64(bExp) {
		p.deviated++
		p.pendingDeviation = w.params.Alpha*float64(bExp) - float64(bAct)
		p.awaitingPenalty = true
	}
}

// onAssignment audits an overheard CTS or ACK carrying an assignment.
func (w *Watchdog) onAssignment(f frame.Frame, now sim.Time) {
	if f.AssignedBackoff < 0 {
		return
	}
	// f flows receiver → sender.
	p := w.pair(f.Dst, f.Src)
	assigned := int(f.AssignedBackoff)

	if p.awaitingPenalty {
		// An honest receiver folds (at least) the deviation into the
		// next assignment on top of a non-negative base. Allowing for
		// the unknown random base, require assignment ≥ half the
		// deviation; a colluding receiver that waives penalties fails
		// this repeatedly while the sender keeps deviating.
		if float64(assigned) < 0.5*p.pendingDeviation {
			p.unpenalised++
		}
		p.awaitingPenalty = false
	}
	p.assigned = assigned

	if f.Type == frame.Ack {
		p.mark = now
		p.hasMark = true
		if p.haveBAct {
			p.bActs = pushBounded(p.bActs, p.lastBAct, w.collusionWindow())
			p.assigns = pushBounded(p.assigns, assigned, w.collusionWindow())
			p.haveBAct = false
		}
		w.judge(f.Dst, f.Src, p, now)
	}
}

// collusionWindow is the number of completed exchanges the collusion
// verdict integrates over: 4·W trades detection delay for a negligible
// false-positive rate against honest random assignments.
func (w *Watchdog) collusionWindow() int { return 4 * w.params.Window }

// judge updates the pair's collusion verdict: over the last 4·W
// completed exchanges, both the observed backoffs and the advertised
// assignments sit below the CWmin/8 floor — the pair is hogging the
// channel with the receiver's blessing.
func (w *Watchdog) judge(sender, receiver frame.NodeID, p *pairState, now sim.Time) {
	if p.colluding || len(p.bActs) < w.collusionWindow() {
		return
	}
	floor := float64(w.macParams.CWMin) / 8
	if meanInts(p.bActs) < floor && meanInts(p.assigns) < floor {
		p.colluding = true
		if w.OnCollusion != nil {
			w.OnCollusion(sender, receiver, now)
		}
	}
}

func meanInts(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// Colluding reports whether the pair has been flagged.
func (w *Watchdog) Colluding(sender, receiver frame.NodeID) bool {
	p, ok := w.pairs[pairKey{sender: sender, receiver: receiver}]
	return ok && p.colluding
}

// PairStats returns (packets observed, sender deviations, unpenalised
// deviations) for a pair.
func (w *Watchdog) PairStats(sender, receiver frame.NodeID) (packets, deviations, unpenalised int) {
	p, ok := w.pairs[pairKey{sender: sender, receiver: receiver}]
	if !ok {
		return 0, 0, 0
	}
	return p.packets, p.deviated, p.unpenalised
}

// Pairs returns the observed (sender, receiver) pairs, ordered.
func (w *Watchdog) Pairs() [][2]frame.NodeID {
	out := make([][2]frame.NodeID, 0, len(w.pairs))
	for k := range w.pairs {
		out = append(out, [2]frame.NodeID{k.sender, k.receiver})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
