package core

import (
	"fmt"

	"dcfguard/internal/frame"
	"dcfguard/internal/mac"
	"dcfguard/internal/obs"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

// Events is NewMonitor's observation argument. It has no fields:
// deviations, per-packet verdicts and attempt-verification proofs are
// the "deviation", "window" and "proven" records on the trace bus (see
// Instrument), which is what run metrics count.
type Events struct{}

// Monitor is the paper's receiver: it assigns backoff values to senders,
// measures B_act between exchanges, detects deviations, applies the
// correction penalty, and runs the diagnosis window. It implements
// mac.ReceiverHook.
type Monitor struct {
	self      frame.NodeID
	params    Params
	macParams mac.Params
	src       *rng.Source
	observer  *IdleObserver
	adaptive  *AdaptiveThresh // nil unless Params.AdaptiveThresh

	senders map[frame.NodeID]*senderRecord

	// down marks a crashed node (fault injection): while set, the
	// monitor refuses every exchange, exactly like a powered-off
	// receiver. restarts counts completed crash/restart cycles.
	down     bool
	restarts int

	// obs holds the pre-resolved observability handles (see obs.go);
	// the zero value means instrumentation is off.
	obs monitorObs
}

// senderRecord is the per-sender monitoring state.
type senderRecord struct {
	// current is the backoff the sender should be counting for its next
	// new packet (b_n); -1 before the first completed exchange.
	current int
	// prev is the value of current before the last rotation, needed to
	// check retransmissions that follow a lost ACK.
	prev int
	// next is the assignment advertised in the ongoing exchange's
	// CTS/ACK (b_{n+1}); -1 when not yet decided.
	next int
	// decidedSeq is the exchange sequence next was decided for.
	decidedSeq uint32
	// lastAckedSeq is the last sequence this receiver ACKed.
	lastAckedSeq uint32
	ackedOnce    bool
	// mark is the end of the last ACK sent to this sender: the start of
	// the B_act observation window.
	mark    sim.Time
	hasMark bool
	// window holds the last W (B_exp − B_act) differences; windowSeqs
	// the packet each entry belongs to (retries replace, not append).
	window     []float64
	windowSeqs []uint32
	// diagnosed is the current verdict of the diagnosis scheme.
	diagnosed bool
	// provenLiar is set when attempt verification caught this sender.
	provenLiar bool
	// verification state: when a drop is outstanding, the RTS we
	// dropped (to check the retry increments the attempt field).
	verifyPending bool
	verifySeq     uint32
	verifyAttempt uint8

	// pendingPenalty accumulates correction penalties not yet folded
	// into an assignment.
	pendingPenalty int

	penaltyTotal   int
	deviationCount int
	packetCount    int

	// Flight-recorder lineage (DESIGN.md §14): the causal identities of
	// the last "assign" and "window" trace records emitted for this
	// sender. Minted only inside Enabled branches, so they stay zero —
	// and cost nothing — when tracing is off.
	assignRef obs.Ref
	windowRef obs.Ref
}

// Flight-recorder record kinds, the low byte of a causal-reference key.
// Keys are content-derived — (monitor, sender, kind) — never scheduler
// or shard artifacts, so serial and sharded runs of one seed mint
// identical references.
const (
	refKindAssign uint8 = iota + 1
	refKindDeviation
	refKindWindow
	refKindDiagnosis
	refKindProven
	refKindAckMark
)

// refKey packs (node, peer, kind) into a reference key. Node IDs are
// well below 2²⁸ in any topology this simulator runs, so the fields
// cannot collide.
func refKey(node, peer frame.NodeID, kind uint8) uint64 {
	return uint64(uint32(node+1))<<36 | uint64(uint32(peer+1))<<8 | uint64(kind)
}

var _ mac.ReceiverHook = (*Monitor)(nil)

// NewMonitor builds the receiver-side engine for the node self.
func NewMonitor(self frame.NodeID, params Params, macParams mac.Params, src *rng.Source, _ Events) *Monitor {
	if err := params.Validate(); err != nil {
		panic(fmt.Sprintf("core: monitor for node %d: %v", self, err))
	}
	if err := macParams.Validate(); err != nil {
		panic(fmt.Sprintf("core: monitor for node %d: %v", self, err))
	}
	m := &Monitor{
		self:      self,
		params:    params,
		macParams: macParams,
		src:       src,
		observer:  NewIdleObserver(macParams.SlotTime, macParams.DIFS(), params.HistoryHorizon),
		senders:   make(map[frame.NodeID]*senderRecord),
	}
	if params.AdaptiveThresh {
		m.adaptive = DefaultAdaptiveThresh()
	}
	return m
}

// CurrentThresh returns the diagnosis threshold in force: the static
// THRESH, or the learned fence when adaptive selection is enabled.
func (m *Monitor) CurrentThresh() float64 {
	if m.adaptive != nil {
		return m.adaptive.Threshold()
	}
	return m.params.Thresh
}

func (m *Monitor) record(sender frame.NodeID) *senderRecord {
	r, ok := m.senders[sender]
	if !ok {
		r = &senderRecord{current: -1, prev: -1, next: -1}
		m.senders[sender] = r
	}
	return r
}

// Diagnosed reports the diagnosis scheme's current verdict for sender.
func (m *Monitor) Diagnosed(sender frame.NodeID) bool {
	r, ok := m.senders[sender]
	return ok && (r.diagnosed || r.provenLiar)
}

// SenderStats returns cumulative per-sender counters: packets checked,
// deviations detected, and total penalty slots assigned.
func (m *Monitor) SenderStats(sender frame.NodeID) (packets, deviations, penaltySlots int) {
	r, ok := m.senders[sender]
	if !ok {
		return 0, 0, 0
	}
	return r.packetCount, r.deviationCount, r.penaltyTotal
}

// Crash implements faults.Restartable: the node goes down at now and
// loses all volatile monitoring state — every per-sender record (the
// assignments senders are counting against, the diagnosis windows, the
// observation marks) and the idle-slot history. This is exactly the
// state a reboot loses, and re-synchronisation afterwards must not
// mistake a correct sender for a misbehaving one: a fresh senderRecord
// has no assignment (current = -1) and no mark, so the deviation check
// stays disarmed until a full assignment cycle completes after restart.
func (m *Monitor) Crash(now sim.Time) {
	m.down = true
	m.senders = make(map[frame.NodeID]*senderRecord)
	m.observer = NewIdleObserver(m.macParams.SlotTime, m.macParams.DIFS(), m.params.HistoryHorizon)
	if m.adaptive != nil {
		m.adaptive = DefaultAdaptiveThresh()
	}
}

// Restart implements faults.Restartable: the node comes back up at now,
// empty-handed. The fresh IdleObserver created at Crash assumes an idle
// channel; carrier transitions observed while down keep it coherent.
func (m *Monitor) Restart(now sim.Time) {
	if m.down {
		m.restarts++
	}
	m.down = false
}

// Down reports whether the monitor is currently crashed; Restarts the
// number of completed crash/restart cycles.
func (m *Monitor) Down() bool { return m.down }

// Restarts returns the number of completed crash/restart cycles.
func (m *Monitor) Restarts() int { return m.restarts }

// OnCarrierBusy implements mac.ReceiverHook.
func (m *Monitor) OnCarrierBusy(now sim.Time) { m.observer.OnBusy(now) }

// OnCarrierIdle implements mac.ReceiverHook.
func (m *Monitor) OnCarrierIdle(now sim.Time) { m.observer.OnIdle(now) }

// OnRTS implements mac.ReceiverHook: the heart of the scheme.
func (m *Monitor) OnRTS(rts frame.Frame, start, end sim.Time) (bool, int) {
	return m.handleOpening(rts, start, end)
}

// handleOpening processes the frame that opens an exchange — the RTS
// in RTS/CTS mode, or the DATA itself in basic-access mode. Both carry
// the attempt number the estimator needs.
func (m *Monitor) handleOpening(f frame.Frame, start, end sim.Time) (bool, int) {
	// A crashed node cannot respond to anything.
	if m.down {
		return false, -1
	}
	r := m.record(f.Src)

	// §4.1 attempt-number verification: check an outstanding drop.
	if r.verifyPending {
		switch {
		case f.Seq == r.verifySeq:
			if f.Attempt <= r.verifyAttempt {
				// The retransmission did not increment the attempt
				// number: immediate proof of misbehavior.
				r.provenLiar = true
				m.obs.proven.Inc()
				if m.obs.bus.Enabled(obs.CatDiagnosis) {
					m.obs.bus.Emit(obs.Record{
						Cat: obs.CatDiagnosis, Time: end, Node: m.self, Peer: f.Src,
						Event: "proven", Seq: f.Seq, A: float64(f.Attempt), B: float64(r.verifyAttempt),
						Self:   obs.Ref{When: end, Key: refKey(m.self, f.Src, refKindProven), Seq: f.Seq},
						Parent: r.assignRef,
					})
				}
			}
			r.verifyPending = false
		case f.Seq > r.verifySeq:
			// The sender abandoned the dropped packet (retry limit);
			// the check is inconclusive.
			r.verifyPending = false
		}
	}

	// Deviation measurement, when we have both an assignment the sender
	// should be counting and an observation window.
	if r.current >= 0 && r.hasMark {
		m.check(r, f, start, end)
	}

	// Decide the next assignment (b_{n+1}) once per exchange; retries
	// of the same sequence re-advertise the same value.
	if r.next < 0 || r.decidedSeq != f.Seq {
		r.next = m.assign(r, f.Src, f.Seq, end)
		r.decidedSeq = f.Seq
	}

	// Blocking mode: refuse service to diagnosed senders.
	if m.params.BlockDiagnosed && (r.diagnosed || r.provenLiar) {
		return false, -1
	}

	// Intentional drop for attempt verification.
	if m.params.VerifyAttempts && !r.verifyPending && m.src.Bool(m.params.VerifyDropProb) {
		r.verifyPending = true
		r.verifySeq = f.Seq
		r.verifyAttempt = f.Attempt
		return false, -1
	}

	return true, r.next
}

// check applies equation (1), the correction scheme and the diagnosis
// window to a received RTS.
func (m *Monitor) check(r *senderRecord, rts frame.Frame, start, end sim.Time) {
	bAct := m.observer.IdleSlots(r.mark, start)

	// Reconstruct B_exp. A retransmission of the sequence we already
	// ACKed means our ACK was lost: the sender counted the base backoff
	// before our observation window opened, so only the retry chain
	// counts, keyed on the assignment it was using then (prev).
	attempt := int(rts.Attempt)
	var bExp int
	dup := r.ackedOnce && rts.Seq == r.lastAckedSeq
	if dup {
		base := r.prev
		if base < 0 {
			return // nothing reliable to check against
		}
		bExp = ExpectedBackoff(base, rts.Src, attempt, m.macParams, false)
	} else {
		bExp = ExpectedBackoff(r.current, rts.Src, attempt, m.macParams, true)
	}

	// Correction scheme (§4.2): penalty proportional to the deviation.
	if float64(bAct) < m.params.Alpha*float64(bExp) {
		deviation := m.params.Alpha*float64(bExp) - float64(bAct)
		penalty := int(m.params.PenaltyFactor*deviation + 0.5)
		if m.params.PenaltyCap > 0 && penalty > m.params.PenaltyCap {
			penalty = m.params.PenaltyCap
		}
		r.pendingPenalty += penalty
		if m.params.PenaltyCap > 0 && r.pendingPenalty > m.params.PenaltyCap {
			r.pendingPenalty = m.params.PenaltyCap
		}
		r.deviationCount++
		m.obs.deviations.Inc()
		if m.obs.bus.Enabled(obs.CatDeviation) {
			// Parent: the assignment decision the sender was counting
			// against (for a lost-ACK duplicate this is the latest
			// assignment, one exchange newer than the prev-keyed check).
			m.obs.bus.Emit(obs.Record{
				Cat: obs.CatDeviation, Time: end, Node: m.self, Peer: rts.Src,
				Event: "deviation", Seq: rts.Seq,
				A: deviation, B: float64(penalty), C: float64(bAct), D: float64(bExp),
				Self:   obs.Ref{When: end, Key: refKey(m.self, rts.Src, refKindDeviation), Seq: rts.Seq},
				Parent: r.assignRef,
			})
		}
	}

	// Diagnosis scheme (§4.3): a moving window of B_exp − B_act sums.
	diff := float64(bExp - bAct)
	if n := len(r.windowSeqs); n > 0 && r.windowSeqs[n-1] == rts.Seq {
		// Retry of an already-recorded packet: replace its entry.
		r.window[len(r.window)-1] = diff
	} else {
		r.window = pushBounded(r.window, diff, m.params.Window)
		r.windowSeqs = pushBounded(r.windowSeqs, rts.Seq, m.params.Window)
		r.packetCount++
		m.obs.packets.Inc()
	}
	m.obs.diff.Observe(diff)
	sum := 0.0
	for _, d := range r.window {
		sum += d
	}
	wasDiagnosed := r.diagnosed
	r.diagnosed = sum > m.CurrentThresh()
	m.obs.windowSum.Set(sum, end)
	if m.obs.bus.Enabled(obs.CatDiagnosis) {
		verdict := "ok"
		if r.diagnosed {
			verdict = "diagnosed"
		}
		// Window records chain backward through Parent (previous window
		// update for this sender): the flight recorder's evidence spine.
		// D/E carry the assigned-vs-observed backoffs behind the diff.
		self := obs.Ref{When: end, Key: refKey(m.self, rts.Src, refKindWindow), Seq: rts.Seq}
		m.obs.bus.Emit(obs.Record{
			Cat: obs.CatDiagnosis, Time: end, Node: m.self, Peer: rts.Src,
			Event: "window", Aux: verdict, Seq: rts.Seq,
			A: diff, B: sum, C: m.CurrentThresh(),
			D: float64(bExp), E: float64(bAct),
			Self: self, Parent: r.windowRef,
		})
		r.windowRef = self
		if r.diagnosed != wasDiagnosed {
			// Verdict transition: the queryable "why" anchor macsim
			// -explain walks back from. A carries the margin (sum −
			// thresh), E the number of packets summed, so the walker
			// knows how deep the evidence chain goes.
			aux := "cleared"
			if r.diagnosed {
				aux = "diagnosed"
			}
			m.obs.bus.Emit(obs.Record{
				Cat: obs.CatDiagnosis, Time: end, Node: m.self, Peer: rts.Src,
				Event: "diagnosis", Aux: aux, Seq: rts.Seq,
				A: sum - m.CurrentThresh(), B: sum, C: m.CurrentThresh(),
				E:    float64(len(r.window)),
				Self: obs.Ref{When: end, Key: refKey(m.self, rts.Src, refKindDiagnosis), Seq: rts.Seq},
				// Parent: the window update that tipped the verdict.
				Parent: self,
			})
		}
	}
	if m.adaptive != nil {
		// Learn from the sum after judging it, so a packet never moves
		// its own goalposts.
		m.adaptive.Observe(sum)
	}
}

// pushBounded appends v to the rolling window xs, dropping the oldest
// entry once xs holds bound entries. The backing array is allocated
// once, at capacity bound, and shifted down in place, so entries stay
// ordered oldest → newest (window sums keep their float bits) and a
// full window never reallocates.
func pushBounded[T any](xs []T, v T, bound int) []T {
	if len(xs) < bound {
		if xs == nil {
			xs = make([]T, 0, bound)
		}
		return append(xs, v)
	}
	copy(xs, xs[1:])
	xs[len(xs)-1] = v
	return xs
}

// assign decides the base backoff for the sender's next packet and adds
// the pending correction penalty. at is the decision instant (the end of
// the opening frame), used only for tracing.
func (m *Monitor) assign(r *senderRecord, sender frame.NodeID, seq uint32, at sim.Time) int {
	var base int
	switch m.params.AssignMode {
	case AssignRandom:
		base = m.src.IntRange(0, m.macParams.CWMin)
	case AssignVerifiable:
		base = G(m.self, sender, seq, m.macParams.CWMin)
	case AssignGreedy:
		base = 0
	}
	penalty := r.pendingPenalty
	if m.params.WaivePenalties {
		penalty = 0
	}
	assigned := base + penalty
	if m.obs.bus.Enabled(obs.CatBackoff) {
		self := obs.Ref{When: at, Key: refKey(m.self, sender, refKindAssign), Seq: seq}
		m.obs.bus.Emit(obs.Record{
			Cat: obs.CatBackoff, Time: at, Node: m.self, Peer: sender,
			Event: "assign", Seq: seq,
			A: float64(base), B: float64(penalty), C: float64(assigned),
			Self: self,
		})
		r.assignRef = self
	}
	if m.params.WaivePenalties {
		r.pendingPenalty = 0
		return base
	}
	m.obs.penaltySlots.Add(uint64(penalty))
	r.penaltyTotal += r.pendingPenalty
	r.pendingPenalty = 0
	return assigned
}

// OnData implements mac.ReceiverHook. With RTS/CTS, the exchange was
// already opened by OnRTS and the DATA just confirms the assignment to
// re-advertise in the ACK. In basic-access mode (a DATA carrying an
// attempt number with no prior RTS decision) the DATA itself opens the
// exchange: it goes through the full detection pipeline, and a false
// verdict suppresses the ACK.
func (m *Monitor) OnData(data frame.Frame, start, end sim.Time) (bool, int) {
	if m.down {
		return false, -1
	}
	r := m.record(data.Src)
	if data.Attempt > 0 && (r.verifyPending || r.next < 0 || r.decidedSeq != data.Seq) {
		return m.handleOpening(data, start, end)
	}
	if r.next < 0 || r.decidedSeq != data.Seq {
		// DATA without a matching RTS decision and no attempt field
		// (should not happen with RTS/CTS on, but stay robust).
		r.next = m.assign(r, data.Src, data.Seq, end)
		r.decidedSeq = data.Seq
	}
	return true, r.next
}

// OnAckSent implements mac.ReceiverHook: the exchange is complete.
// Rotate assignments and open the observation window for the sender's
// next packet.
func (m *Monitor) OnAckSent(to frame.NodeID, seq uint32, end sim.Time) {
	// An ACK whose transmission was armed before a crash can complete
	// after it; a dead node records nothing.
	if m.down {
		return
	}
	r := m.record(to)
	r.prev = r.current
	if r.next >= 0 {
		r.current = r.next
	}
	r.lastAckedSeq = seq
	r.ackedOnce = true
	r.mark = end
	r.hasMark = true
	if m.obs.bus.Enabled(obs.CatBackoff) {
		// Parent: the assignment decision this ACK just made current.
		m.obs.bus.Emit(obs.Record{
			Cat: obs.CatBackoff, Time: end, Node: m.self, Peer: to,
			Event: "ack-mark", Seq: seq, A: float64(r.current),
			Self:   obs.Ref{When: end, Key: refKey(m.self, to, refKindAckMark), Seq: seq},
			Parent: r.assignRef,
		})
	}
}
