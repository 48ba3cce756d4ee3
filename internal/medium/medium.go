// Package medium implements the shared wireless channel. It connects
// node positions and radios (internal/phys) to MAC-layer state machines
// (internal/mac): when a node transmits, the medium decides — per
// observer, from a shadowing draw of the received power — whether the
// transmission is sensed (carrier busy) and whether it is decodable, and
// resolves collisions between overlapping decodable frames.
//
// Modelling notes, relative to the paper's ns-2 setup:
//
//   - Propagation delay is ignored (≤ 2 µs at the paper's distances,
//     a tenth of a slot); all observers see a frame start and end at the
//     transmitter's instants.
//   - Each (transmission, observer) pair gets an independent shadowing
//     draw. An optional coherence interval re-draws the *sensing*
//     decision within a frame at slot granularity, mirroring the paper's
//     modification of ns-2's physical carrier sensing.
//   - Two decodable frames overlapping at an observer destroy each other
//     unless one exceeds the other by the radio's capture margin.
//     Sub-receive-threshold energy never corrupts a frame, as in
//     classic ns-2.
//
// Hot-path design (see index.go): every shadowing draw is a pure
// function of the (transmitter, observer, frame) triple via a counter
// RNG, so pairs whose mean plus the hard draw bound (rng.NormBound·σ)
// still falls below both thresholds cost nothing at all, and a spatial
// grid index, rebuilt lazily at the first Transmit after the last
// Attach, reduces Transmit to O(reachable) observers. Arrival records
// and scheduler events are pooled, so a steady-state run allocates
// nothing per frame. Channel model v3 (see v3.go) adds a propagation
// delay and keyed event ordering for sharded runs.
package medium

import (
	"fmt"
	"sort"

	"dcfguard/internal/frame"
	"dcfguard/internal/obs"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

// Listener receives channel events at one node. Implementations are the
// MAC state machines and the receiver-side idle-slot observer.
//
// Ordering guarantees at identical instants: FrameReceived fires before
// CarrierIdle, so a responder can arm its SIFS response before seeing
// the channel go idle.
type Listener interface {
	// CarrierBusy is called when the node's carrier sense transitions
	// from idle to busy (including the node's own transmissions).
	CarrierBusy(now sim.Time)
	// CarrierIdle is called when the carrier sense transitions from
	// busy to idle.
	CarrierIdle(now sim.Time)
	// FrameReceived is called when a frame addressed to anyone is
	// successfully decoded at this node (overhearing included; the MAC
	// filters by destination and handles NAV updates).
	FrameReceived(f frame.Frame, now sim.Time)
}

// CorruptionListener is an optional extension of Listener: implementers
// are told when a decodable frame was destroyed by a collision at their
// antenna (the trigger for 802.11's EIFS deferral).
type CorruptionListener interface {
	FrameCorrupted(now sim.Time)
}

// FrameFaults injects per-frame channel errors beyond the collision
// model: Drop is consulted once for every frame that survived collision
// resolution and half-duplex blocking at an observer, in completion
// event order, and a true return destroys the frame at that observer
// (the MAC sees it as a corruption, like a failed CRC).
// internal/faults implements it; a nil hook is the perfect channel.
type FrameFaults interface {
	Drop(tx, rx frame.NodeID) bool
}

// ChannelModel selects whether frames propagate instantly (v2, the
// zero value) or with a delay and keyed event ordering (v3).
type ChannelModel int

const (
	// ChannelV2 derives every shadowing draw from a per-(transmitter,
	// observer, frame) counter RNG and iterates only the transmitter's
	// feasible neighbors from a spatial grid index, making Transmit
	// O(reachable) instead of O(n). Results are independent of
	// iteration order and carry their own determinism goldens. It is
	// the zero value.
	ChannelV2 ChannelModel = iota
	// ChannelV3 is v2 plus a uniform per-link propagation delay
	// (V3PropDelay) and keyed event ordering — the model whose results
	// are independent of how nodes are partitioned across scheduler
	// shards, and hence the only model that supports Scenario.Shards > 1
	// (see v3.go). Serial v3 runs carry their own determinism goldens.
	ChannelV3
)

// String returns the model name as used by the macsim -channel flag.
func (c ChannelModel) String() string {
	switch c {
	case ChannelV2:
		return "v2"
	case ChannelV3:
		return "v3"
	default:
		return fmt.Sprintf("ChannelModel(%d)", int(c))
	}
}

// Config parameterises a Medium.
type Config struct {
	// Model is the propagation model shared by all links.
	Model phys.Shadowing
	// CoherenceInterval, when positive, re-draws each observer's
	// sensing decision for every interval of this length within a
	// frame, modelling channel variation at sub-frame granularity.
	// Zero draws once per (frame, observer).
	CoherenceInterval sim.Time
	// Channel selects the channel model; the zero value is ChannelV2.
	Channel ChannelModel
	// FrameFaults, when non-nil, is the fault-injection hook applied to
	// frames the collision model would have delivered. Nil (the
	// default) leaves every golden-pinned run untouched.
	FrameFaults FrameFaults
}

// Medium is the shared channel. It is bound to one scheduler and one
// RNG stream; a simulation run owns it exclusively.
type Medium struct {
	sched *sim.Scheduler
	cfg   Config

	nodes []*node // ascending NodeID (binary-inserted on Attach)
	byID  map[frame.NodeID]*node
	// dense is the NodeID-indexed fast lookup for the common
	// contiguous-small-ID case: Transmit and the MAC's per-event
	// Radio/Busy/Transmitting queries hit it instead of the map. IDs
	// beyond denseLimit fall back to byID.
	dense []*node

	// cacheDirty marks the neighbor index stale: it is rebuilt lazily
	// at the first Transmit after the last Attach.
	cacheDirty bool

	// freeArrivals pools arrival records (recycled in complete).
	// Sharded runs use the per-shard pools instead (see v3.go).
	freeArrivals []*arrival
	// freeRuns pools v3 fan runs and runs is fanOutV3's one-slot
	// scratch, for serial (unsharded) v3 runs (see v3.go).
	freeRuns []*fanRun
	runs     []*fanRun

	// Sharded-run state (channel model v3 only, see v3.go): sharded is
	// set by ConfigureShards, after which per-node scheduling goes
	// through node.sched and pooling/counting through shards[i].
	sharded bool
	shards  []*mediumShard

	// v2Base is the counter-RNG base key, derived once from the
	// medium's stream at New.
	v2Base uint64
	// bruteForce (tests only) makes the v2 index enumerate every
	// ordered pair with no feasibility pruning — the all-pairs
	// reference the grid equivalence quickcheck compares against.
	bruteForce bool

	transmissions uint64
	deliveries    uint64
	collisions    uint64
	faultDrops    uint64

	// obs holds the pre-resolved observability handles (see obs.go);
	// the zero value means instrumentation is off.
	obs mediumObs
}

type node struct {
	id frame.NodeID
	m  *Medium
	// sched is the scheduler this node's events run on: Medium.sched
	// normally, the node's shard scheduler after ConfigureShards. All
	// per-node scheduling and clock reads go through it.
	sched *sim.Scheduler
	// shard is the node's shard index (0 until ConfigureShards).
	shard    int
	pos      phys.Point
	radio    phys.Radio
	listener Listener

	busyDepth int
	txUntil   sim.Time // end of this node's latest own transmission
	arrivals  []*arrival

	// Neighbor-index state: the per-transmitter frame counter that
	// indexes counter-RNG draws, the maximum interaction radius as a
	// transmitter, and the precomputed feasible-observer list
	// (ascending ID), rebuilt lazily after Attach.
	txCount   uint64
	reachM    float64
	neighbors []neighbor
}

type arrival struct {
	obs         *node
	f           frame.Frame
	start, end  sim.Time
	powerDBm    float64
	corrupted   bool
	selfBlocked bool // overlapped one of the observer's own transmissions
	// withBusyEnd folds the observer's carrier busy-end into the
	// completion event (v2 fast path): decodable ⇒ sensed, and both
	// fall at the frame end, so one heap event serves both.
	withBusyEnd bool
}

// Pooled-event trampolines: package-level funcs passed to AtArg/AfterArg
// so the busy-transition and arrival-completion events allocate nothing.
func busyEndEvent(arg any, when sim.Time) {
	n := arg.(*node)
	n.m.busyEnd(n, when)
}

func busyStartEvent(arg any, when sim.Time) {
	n := arg.(*node)
	n.m.busyStart(n, when)
}

func completeEvent(arg any, _ sim.Time) {
	a := arg.(*arrival)
	a.obs.m.complete(a.obs, a)
}

// New returns a medium driven by the given scheduler, deriving the
// counter-RNG base key of every shadowing draw from src.
func New(sched *sim.Scheduler, cfg Config, src *rng.Source) *Medium {
	if err := cfg.Model.Validate(); err != nil {
		panic(fmt.Sprintf("medium: invalid model: %v", err))
	}
	m := &Medium{
		sched: sched,
		cfg:   cfg,
		byID:  make(map[frame.NodeID]*node),
	}
	switch cfg.Channel {
	case ChannelV2, ChannelV3:
		// Derive the counter-RNG base key. v3 reuses the v2 stream
		// name: at equal seeds the two models share shadowing draws,
		// differing only in delay and event keying.
		m.v2Base = src.Stream("channel-v2").Uint64()
	default:
		panic(fmt.Sprintf("medium: invalid channel model %d", int(cfg.Channel)))
	}
	if cfg.Channel == ChannelV3 && cfg.CoherenceInterval > 0 {
		// v3 has no coherence path: sub-frame re-draws would need their
		// own keyed sub-events, and no paper experiment combines them
		// with large topologies.
		panic("medium: channel model v3 does not support a coherence interval")
	}
	if cfg.Channel == ChannelV3 {
		m.runs = make([]*fanRun, 1)
	}
	return m
}

// Attach registers a node on the channel. IDs must be unique; the node
// list is kept in ascending ID order (binary insertion, not a re-sort),
// which fixes the (deterministic) order in which observers are visited.
// Attaching invalidates the neighbor index; it rebuilds lazily at the
// next Transmit, so interleaving Attach and Transmit is safe but pays a
// rebuild per interleave.
func (m *Medium) Attach(id frame.NodeID, pos phys.Point, radio phys.Radio, l Listener) {
	if _, dup := m.byID[id]; dup {
		panic(fmt.Sprintf("medium: duplicate node id %d", id))
	}
	if err := radio.Validate(); err != nil {
		panic(fmt.Sprintf("medium: node %d: %v", id, err))
	}
	if m.sharded {
		panic(fmt.Sprintf("medium: Attach of node %d after ConfigureShards", id))
	}
	n := &node{id: id, m: m, sched: m.sched, pos: pos, radio: radio, listener: l}
	i := sort.Search(len(m.nodes), func(i int) bool { return m.nodes[i].id > id })
	m.nodes = append(m.nodes, nil)
	copy(m.nodes[i+1:], m.nodes[i:])
	m.nodes[i] = n
	m.byID[id] = n
	if id >= 0 && id < denseLimit {
		if int(id) >= len(m.dense) {
			m.dense = append(m.dense, make([]*node, int(id)+1-len(m.dense))...)
		}
		m.dense[id] = n
	}
	m.cacheDirty = true
}

// denseLimit bounds the dense lookup table so a single huge sparse ID
// cannot balloon it; every repo scenario numbers nodes contiguously
// from zero and stays far below it.
const denseLimit = 1 << 20

// lookup resolves a NodeID to its node, preferring the dense table.
func (m *Medium) lookup(id frame.NodeID) *node {
	if id >= 0 && int(id) < len(m.dense) {
		if n := m.dense[id]; n != nil {
			return n
		}
	}
	return m.byID[id]
}

// Stats returns cumulative channel counters: transmissions started,
// frames delivered, and frames lost to collisions at their addressee.
// Sharded runs sum the per-shard counters (call between windows or
// after the run).
func (m *Medium) Stats() (transmissions, deliveries, collisions uint64) {
	transmissions, deliveries, collisions = m.transmissions, m.deliveries, m.collisions
	for _, sh := range m.shards {
		transmissions += sh.transmissions
		deliveries += sh.deliveries
		collisions += sh.collisions
	}
	return transmissions, deliveries, collisions
}

// FaultDrops returns the number of frames destroyed by the
// fault-injection hook (zero when Config.FrameFaults is nil).
func (m *Medium) FaultDrops() uint64 {
	n := m.faultDrops
	for _, sh := range m.shards {
		n += sh.faultDrops
	}
	return n
}

// newArrival takes an arrival record from the pool, or allocates one.
func (m *Medium) newArrival() *arrival {
	if n := len(m.freeArrivals); n > 0 {
		a := m.freeArrivals[n-1]
		m.freeArrivals[n-1] = nil
		m.freeArrivals = m.freeArrivals[:n-1]
		return a
	}
	return &arrival{}
}

// Transmit puts a frame on the air from src at the current instant and
// returns the instant the transmission ends. The caller (the MAC) must
// not already be transmitting.
func (m *Medium) Transmit(srcID frame.NodeID, f frame.Frame) sim.Time {
	tx := m.lookup(srcID)
	if tx == nil {
		panic(fmt.Sprintf("medium: transmit from unattached node %d", srcID))
	}
	if m.cacheDirty {
		m.buildIndex()
	}
	now := tx.sched.Now()
	if tx.txUntil > now {
		panic(fmt.Sprintf("medium: node %d transmit at %v while transmitting until %v",
			srcID, now, tx.txUntil))
	}
	if err := f.Validate(); err != nil {
		panic(fmt.Sprintf("medium: node %d transmitting invalid frame: %v", srcID, err))
	}
	end := now + f.Airtime(tx.radio.BitRate)
	tx.txUntil = end
	if m.sharded {
		m.shards[tx.shard].transmissions++
	} else {
		m.transmissions++
	}
	m.obs.transmissions.Inc()
	if m.obs.chanOn() {
		m.busAt(tx).Emit(TxRecord(f, now, end))
	}

	// The transmitter's own carrier goes busy for the duration.
	m.busyStart(tx, now)
	// A node that starts transmitting while a frame is arriving
	// destroys that arrival locally (half-duplex). Compact dead entries
	// (already completed at this instant) out of the list as we go.
	live := tx.arrivals[:0]
	for _, a := range tx.arrivals {
		if a.end <= now {
			continue
		}
		a.selfBlocked = true
		live = append(live, a)
	}
	clearTail(tx.arrivals, len(live))
	tx.arrivals = live

	if m.cfg.Channel == ChannelV3 {
		m.fanOutV3(tx, f, now, end)
	} else {
		m.fanOutV2(tx, f, now, end)
	}

	// Self busy-end. Scheduled after arrivals so that, at instant
	// `end`, deliveries (scheduled by the fan-out) precede carrier
	// transitions only per-observer; the transmitter has no delivery.
	tx.sched.AtArg(end, busyEndEvent, tx)
	return end
}

// clearTail nils the slice entries from i on, so the shrunken arrivals
// list does not retain pooled records.
func clearTail(s []*arrival, i int) {
	for ; i < len(s); i++ {
		s[i] = nil
	}
}

// admitArrival registers a decodable arrival at obs: it creates the
// pooled record, resolves it, and schedules completion. The returned
// record lets the v2 fast path set withBusyEnd. v3 allocates from its
// shard pool and completes a whole fan run in one keyed event, so it
// calls resolveArrival directly (see arriveRun).
func (m *Medium) admitArrival(obs *node, f frame.Frame, power float64, start, end sim.Time) *arrival {
	a := m.newArrival()
	m.resolveArrival(obs, a, f, power, start, end)
	m.sched.AtArg(end, completeEvent, a)
	return a
}

// resolveArrival fills the pooled record a with the arrival's outcome:
// the half-duplex self-block, then collision resolution (with capture)
// against obs's other live arrivals — compacting dead entries in the
// same pass. The caller schedules the completion event.
func (m *Medium) resolveArrival(obs *node, a *arrival, f frame.Frame, power float64, start, end sim.Time) {
	*a = arrival{obs: obs, f: f, start: start, end: end, powerDBm: power}
	// Half-duplex: if the observer is mid-transmission now, it cannot
	// lock onto the arriving frame.
	if obs.txUntil > start {
		a.selfBlocked = true
	}
	live := obs.arrivals[:0]
	for _, other := range obs.arrivals {
		if other.end <= start {
			continue
		}
		switch {
		case a.powerDBm >= other.powerDBm+obs.radio.CaptureDB && obs.radio.CaptureDB > 0:
			other.corrupted = true
		case other.powerDBm >= a.powerDBm+obs.radio.CaptureDB && obs.radio.CaptureDB > 0:
			a.corrupted = true
		default:
			other.corrupted = true
			a.corrupted = true
		}
		live = append(live, other)
	}
	clearTail(obs.arrivals, len(live))
	obs.arrivals = append(live, a)
}

// scheduleBusyRun arms one busy interval [runStart, runEnd) at obs.
// txStart is the transmission start: a run beginning there transitions
// synchronously (we are inside the transmit event at that instant).
func (m *Medium) scheduleBusyRun(obs *node, runStart, runEnd, txStart sim.Time) {
	if runStart == txStart {
		m.busyStart(obs, runStart)
	} else {
		m.sched.AtArg(runStart, busyStartEvent, obs)
	}
	m.sched.AtArg(runEnd, busyEndEvent, obs)
}

// complete finishes an arrival at obs: delivers the frame if it
// survived, then recycles the record.
func (m *Medium) complete(obs *node, a *arrival) {
	// Drop the arrival from the active list (it may already have been
	// compacted out as a dead entry by a later transmission).
	for i, x := range obs.arrivals {
		if x == a {
			last := len(obs.arrivals) - 1
			obs.arrivals[i] = obs.arrivals[last]
			obs.arrivals[last] = nil
			obs.arrivals = obs.arrivals[:last]
			break
		}
	}
	corrupted, selfBlocked, f, end := a.corrupted, a.selfBlocked, a.f, a.end
	withBusyEnd := a.withBusyEnd
	*a = arrival{}
	if m.sharded {
		sh := m.shards[obs.shard]
		sh.freeArrivals = append(sh.freeArrivals, a)
	} else {
		m.freeArrivals = append(m.freeArrivals, a)
	}

	// Fault injection: a frame that survived collisions and half-duplex
	// blocking can still be destroyed by the channel-error model. The
	// MAC experiences it exactly like a collision-corrupted frame (EIFS
	// deferral via FrameCorrupted), which is what a failed CRC looks
	// like on real hardware.
	faultDropped := false
	if !corrupted && !selfBlocked && m.cfg.FrameFaults != nil {
		faultDropped = m.cfg.FrameFaults.Drop(f.Src, obs.id)
		if faultDropped {
			if m.sharded {
				m.shards[obs.shard].faultDrops++
			} else {
				m.faultDrops++
			}
			m.obs.faultDrops.Inc()
		}
	}

	if corrupted || selfBlocked || faultDropped {
		if f.Dst == obs.id && !faultDropped {
			if m.sharded {
				m.shards[obs.shard].collisions++
			} else {
				m.collisions++
			}
			m.obs.collisions.Inc()
		}
		if m.obs.chanOn() {
			switch {
			case faultDropped:
				m.traceOutcome("fault-drop", obs, f, end)
			case selfBlocked:
				m.traceOutcome("self-block", obs, f, end)
			default:
				m.traceOutcome("collision", obs, f, end)
			}
		}
		if !selfBlocked {
			if cl, ok := obs.listener.(CorruptionListener); ok {
				cl.FrameCorrupted(end)
			}
		}
	} else {
		if m.sharded {
			m.shards[obs.shard].deliveries++
		} else {
			m.deliveries++
		}
		m.obs.deliveries.Inc()
		if m.obs.chanOn() {
			m.traceOutcome("deliver", obs, f, end)
		}
		if obs.listener != nil {
			obs.listener.FrameReceived(f, end)
		}
	}
	// Folded carrier busy-end (v2): after any delivery, preserving the
	// FrameReceived-before-CarrierIdle ordering guarantee.
	if withBusyEnd {
		m.busyEnd(obs, end)
	}
}

func (m *Medium) busyStart(n *node, now sim.Time) {
	n.busyDepth++
	if n.busyDepth == 1 {
		if m.obs.chanOn() {
			m.busAt(n).Emit(obs.Record{Cat: obs.CatChannel, Time: now, Node: n.id, Peer: obs.NoNode, Event: "busy"})
		}
		if n.listener != nil {
			n.listener.CarrierBusy(now)
		}
	}
}

func (m *Medium) busyEnd(n *node, now sim.Time) {
	if n.busyDepth <= 0 {
		panic(fmt.Sprintf("medium: node %d busy depth underflow at %v", n.id, now))
	}
	n.busyDepth--
	if n.busyDepth == 0 {
		if m.obs.chanOn() {
			m.busAt(n).Emit(obs.Record{Cat: obs.CatChannel, Time: now, Node: n.id, Peer: obs.NoNode, Event: "idle"})
		}
		if n.listener != nil {
			n.listener.CarrierIdle(now)
		}
	}
}

// Transmitting reports whether the given node's own transmission is in
// progress at the current instant.
func (m *Medium) Transmitting(id frame.NodeID) bool {
	n := m.lookup(id)
	if n == nil {
		panic(fmt.Sprintf("medium: Transmitting on unattached node %d", id))
	}
	return n.txUntil > n.sched.Now()
}

// Busy reports whether the given node currently senses the channel busy.
func (m *Medium) Busy(id frame.NodeID) bool {
	n := m.lookup(id)
	if n == nil {
		panic(fmt.Sprintf("medium: Busy on unattached node %d", id))
	}
	return n.busyDepth > 0
}

// Position returns the attached node's position.
func (m *Medium) Position(id frame.NodeID) phys.Point {
	n := m.lookup(id)
	if n == nil {
		panic(fmt.Sprintf("medium: Position on unattached node %d", id))
	}
	return n.pos
}

// Radio returns the attached node's radio parameters.
func (m *Medium) Radio(id frame.NodeID) phys.Radio {
	n := m.lookup(id)
	if n == nil {
		panic(fmt.Sprintf("medium: Radio on unattached node %d", id))
	}
	return n.radio
}

// NodeIDs returns the attached node IDs in ascending order.
func (m *Medium) NodeIDs() []frame.NodeID {
	ids := make([]frame.NodeID, len(m.nodes))
	for i, n := range m.nodes {
		ids[i] = n.id
	}
	return ids
}
