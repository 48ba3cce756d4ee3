package medium

import (
	"dcfguard/internal/frame"
	"dcfguard/internal/obs"
	"dcfguard/internal/sim"
)

// mediumObs holds the medium's pre-resolved observability handles. The
// zero value is the disabled state — every hook degrades to a nil-check
// no-op, and nothing here touches RNG or scheduler state (pass-through
// contract, package obs).
type mediumObs struct {
	bus *obs.Bus
	// shardBuses, when non-nil, routes each emission to the node's shard
	// front bus (obs.ShardFanin) instead of the shared bus: shard
	// goroutines must not touch the real sinks. Category subscriptions
	// mirror bus, so chanOn stays a single shared guard.
	shardBuses    []*obs.Bus
	transmissions *obs.Counter
	deliveries    *obs.Counter
	collisions    *obs.Counter
	faultDrops    *obs.Counter
}

// Instrument attaches the medium to a metrics registry and trace bus
// (either may be nil). All by-name handle resolution happens here, once,
// per the detlint obshot rule. The channel counters are system-wide, so
// they are keyed to obs.NoNode.
func (m *Medium) Instrument(reg *obs.Registry, bus *obs.Bus) {
	m.obs = mediumObs{
		bus:           bus,
		transmissions: reg.Counter("medium", obs.NoNode, "transmissions"),
		deliveries:    reg.Counter("medium", obs.NoNode, "deliveries"),
		collisions:    reg.Counter("medium", obs.NoNode, "collisions"),
		faultDrops:    reg.Counter("medium", obs.NoNode, "fault_drops"),
	}
}

// InstrumentShards switches channel-trace emission to per-shard front
// buses (indexed by shard, from obs.ShardFanin). Sharded runs with
// tracing enabled must call it after ConfigureShards: emissions happen
// on shard goroutines, which may only touch their own shard's buffer.
func (m *Medium) InstrumentShards(buses []*obs.Bus) {
	if buses == nil {
		return
	}
	if !m.sharded || len(buses) != len(m.shards) {
		panic("medium: InstrumentShards bus count does not match ConfigureShards")
	}
	m.obs.shardBuses = buses
}

// chanOn is the hot-path guard for channel tracing. It exists as a
// method (rather than an inline bus.Enabled call) because several
// emission sites shadow the obs package name with an observer-node
// variable. The shared bus carries the same subscriptions as any shard
// front bus, so one guard serves both routings.
func (o *mediumObs) chanOn() bool { return o.bus.Enabled(obs.CatChannel) }

// busAt returns the bus emissions concerning node at must go to: the
// node's shard front bus when sharded tracing is wired, the shared bus
// otherwise.
func (m *Medium) busAt(at *node) *obs.Bus {
	if m.obs.shardBuses != nil {
		return m.obs.shardBuses[at.shard]
	}
	return m.obs.bus
}

// traceOutcome emits the per-observer completion outcome ("deliver",
// "collision", "self-block", "fault-drop") for a frame ending at end at
// the observer. A carries the transmission's on-air end, which under v3
// is the propagation delay earlier: with Peer (the transmitter, whose
// own transmissions never overlap) it names the transmission uniquely.
func (m *Medium) traceOutcome(event string, at *node, f frame.Frame, end sim.Time) {
	onAir := end
	if m.cfg.Channel == ChannelV3 {
		onAir -= V3PropDelay
	}
	m.busAt(at).Emit(obs.Record{
		Cat: obs.CatChannel, Time: end, Node: at.id, Peer: f.Src,
		Event: event, Aux: f.Type.String(), Seq: f.Seq, A: float64(onAir),
	})
}

// TxRecord encodes a transmission of f on [start, end) as a channel
// "tx" record: Node/Peer are the transmitter and addressee, Aux the
// frame type, A the airtime, B the attempt number, C the assigned
// backoff, D the NAV duration in ns and E the payload length. Every
// field is an integer well inside float64's exact range, so TxFrame
// inverts it.
func TxRecord(f frame.Frame, start, end sim.Time) obs.Record {
	return obs.Record{
		Cat: obs.CatChannel, Time: start, Node: f.Src, Peer: f.Dst, Event: "tx",
		Aux: f.Type.String(), Seq: f.Seq, A: float64(end - start),
		B: float64(f.Attempt), C: float64(f.AssignedBackoff),
		D: float64(f.Duration), E: float64(f.PayloadBytes),
	}
}

// TxFrame decodes the frame a "tx" channel record carries (see
// TxRecord). An unknown Aux decodes to the invalid zero Type.
func TxFrame(r obs.Record) frame.Frame {
	f := frame.Frame{
		Src: r.Node, Dst: r.Peer, Seq: r.Seq,
		Attempt: uint8(r.B), AssignedBackoff: int32(r.C),
		Duration: sim.Time(r.D), PayloadBytes: int(r.E),
	}
	for t := frame.RTS; t <= frame.Ack; t++ {
		if t.String() == r.Aux {
			f.Type = t
		}
	}
	return f
}
