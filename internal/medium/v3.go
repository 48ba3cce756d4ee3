// Channel model v3: v2's counter RNG and grid index plus a uniform
// per-link propagation delay and keyed event ordering — the model built
// to be partitionable across scheduler shards.
//
// Why a new model instead of sharding v2: v2 delivers with zero
// propagation delay, so a transmission and its arrivals share one
// instant, and their relative order is broken by scheduling-order
// sequence numbers. Zero delay means zero lookahead — no conservative
// window can fire a transmit event on one shard before knowing whether
// an earlier-or-equal event on another shard would reach the same
// observers, and the FIFO tie-break is itself an artifact of the
// execution interleaving. v3 changes the model, not just the runtime:
//
//   - Every link carries the same propagation delay V3PropDelay, so a
//     frame sent at t is sensed/decoded at t+δ and ends at end+δ. δ is
//     the cross-shard lookahead: an event at t can only affect another
//     node at t+δ or later.
//   - Same-instant ordering is by explicit (time, key) with
//     partition-invariant keys (sim.FanKey / owner counters, see
//     internal/sim/key.go), so the event stream is a pure function of
//     the model for ANY shard count — including 1, which is why serial
//     and sharded v3 runs are bit-identical and a single golden pins
//     them both.
//
// δ = 10 µs (= SIFS, half a slot) is physically generous — 3 km at the
// speed of light, versus the paper's ≤ 250 m ranges — but behaviorally
// safe: every DCF response gap (SIFS, DIFS, backoff slots) is measured
// at the receiver from its local arrival instants, and the protocol's
// timeout slack (2 slots around each expected response) absorbs the
// extra 2δ round trip because δ < SlotTime. The experiment layer
// asserts that inequality when deriving the lookahead.
//
// Sharding (ConfigureShards) assigns each node to one scheduler shard.
// Same-shard arrivals are scheduled directly; cross-shard arrivals are
// buffered in per-(source, destination) outboxes and injected at the
// window barrier by ExchangeShardMessages, which the coordinator calls
// single-threadedly. Outboxes are slices drained in fixed (source,
// destination, append) order — never map iteration — though the queue's
// total (time, key) order makes results independent of injection order
// anyway.
package medium

import (
	"fmt"

	"dcfguard/internal/frame"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

// V3PropDelay is channel model v3's uniform per-link propagation delay,
// and therefore the sharded kernel's lookahead bound. It must stay
// strictly below the MAC slot time (asserted by the experiment layer)
// so the 2δ response round trip hides inside DCF's 2-slot timeout
// slack.
const V3PropDelay = 10 * sim.Microsecond

// mediumShard is the per-shard slice of the medium's mutable state:
// everything a shard goroutine touches per event lives here (or on the
// observer's node, which is owned by its shard), so shard goroutines
// never write shared medium fields.
type mediumShard struct {
	sched *sim.Scheduler
	// freeArrivals/freeMsgs pool this shard's records. A record is
	// allocated by the goroutine that owns the pool's shard and released
	// by the goroutine of the shard it was delivered on, so each pool is
	// only ever touched by its own shard's goroutine.
	freeArrivals []*arrival
	freeMsgs     []*v3msg
	// outbox[dst] buffers arrivals fanned out from this shard to nodes
	// of shard dst within the current window; the coordinator drains it
	// at the barrier.
	outbox [][]*v3msg

	transmissions uint64
	deliveries    uint64
	collisions    uint64
	faultDrops    uint64
}

// v3msg is one (transmission, observer) arrival in flight: everything
// deliverV3 needs to replay the arrival on the observer's shard.
type v3msg struct {
	obs       *node
	f         frame.Frame
	key       uint64
	when, end sim.Time
	power     float64
	decodable bool
}

// v3ArrivalEvent is the pooled trampoline for arrival messages.
func v3ArrivalEvent(arg any, when sim.Time) {
	msg := arg.(*v3msg)
	msg.obs.m.deliverV3(msg, when)
}

// ConfigureShards partitions the attached nodes across the given keyed
// schedulers (assign maps node ID → shard index) and switches the
// medium to sharded operation. Channel model v3 only; must be called
// after the last Attach. The neighbor index is built eagerly: a lazy
// rebuild at the first Transmit would race across shard goroutines.
func (m *Medium) ConfigureShards(scheds []*sim.Scheduler, assign func(frame.NodeID) int) {
	if m.cfg.Channel != ChannelV3 {
		panic(fmt.Sprintf("medium: ConfigureShards requires channel model v3, have %v", m.cfg.Channel))
	}
	if m.sharded {
		panic("medium: ConfigureShards called twice")
	}
	ns := len(scheds)
	if ns < 2 {
		panic("medium: ConfigureShards needs at least 2 schedulers")
	}
	m.shards = make([]*mediumShard, ns)
	for i, s := range scheds {
		m.shards[i] = &mediumShard{sched: s, outbox: make([][]*v3msg, ns)}
	}
	for _, n := range m.nodes {
		si := assign(n.id)
		if si < 0 || si >= ns {
			panic(fmt.Sprintf("medium: node %d assigned to shard %d of %d", n.id, si, ns))
		}
		n.shard = si
		n.sched = scheds[si]
	}
	m.sharded = true
	if m.cacheDirty {
		m.buildIndex()
	}
}

// newMsg takes a message record from the shard's pool (or the serial
// pool), or allocates one.
func (m *Medium) newMsg(shard int) *v3msg {
	pool := &m.freeMsgs
	if m.sharded {
		pool = &m.shards[shard].freeMsgs
	}
	if n := len(*pool); n > 0 {
		msg := (*pool)[n-1]
		(*pool)[n-1] = nil
		*pool = (*pool)[:n-1]
		return msg
	}
	return &v3msg{}
}

// releaseMsg returns a delivered message to the pool of the shard it
// was delivered on (messages migrate between pools with the traffic).
func (m *Medium) releaseMsg(shard int, msg *v3msg) {
	*msg = v3msg{}
	if m.sharded {
		sh := m.shards[shard]
		sh.freeMsgs = append(sh.freeMsgs, msg)
		return
	}
	m.freeMsgs = append(m.freeMsgs, msg)
}

// arrivalFor mirrors newArrival for the sharded pools.
func (m *Medium) arrivalFor(shard int) *arrival {
	if !m.sharded {
		return m.newArrival()
	}
	pool := &m.shards[shard].freeArrivals
	if n := len(*pool); n > 0 {
		a := (*pool)[n-1]
		(*pool)[n-1] = nil
		*pool = (*pool)[:n-1]
		return a
	}
	return &arrival{}
}

// fanOutV3 computes per-observer outcomes for one transmission under
// channel model v3. Draw derivation is identical to fanOutV2 — same
// pair keys, same frame counters, same uniform thresholds — so at equal
// seeds v3 sees the very shadowing draws v2 does. What differs is
// delivery: each sensed observer gets an arrival message at now+δ
// keyed by sim.FanKey(tx, frame, obs), scheduled directly on the
// observer's shard when local and buffered in the outbox for the
// barrier exchange when remote.
func (m *Medium) fanOutV3(tx *node, f frame.Frame, now, end sim.Time) {
	delta := rng.Mix64Delta(tx.txCount)
	frameIdx := tx.txCount
	tx.txCount++
	sigma := m.cfg.Model.SigmaDB
	var txShard *mediumShard
	if m.sharded {
		txShard = m.shards[tx.shard]
	}
	for i := range tx.neighbors {
		nb := &tx.neighbors[i]
		u := rng.CounterUniform(rng.Mix64Pre(nb.pairKey, delta), 0)
		if u < nb.uCs {
			continue // neither sensed nor decodable
		}
		obs := nb.obs
		msg := m.newMsg(tx.shard)
		msg.obs = obs
		msg.f = f
		msg.key = sim.FanKey(uint64(tx.id), frameIdx, uint64(obs.id))
		msg.when = now + V3PropDelay
		msg.end = end + V3PropDelay
		if u >= nb.uRx {
			msg.decodable = true
			msg.power = nb.meanDBm + sigma*rng.InvNormCDF(u)
		}
		if txShard == nil || obs.shard == tx.shard {
			obs.sched.AtKeyedArg(msg.when, msg.key, v3ArrivalEvent, msg)
		} else {
			txShard.outbox[obs.shard] = append(txShard.outbox[obs.shard], msg)
		}
	}
}

// deliverV3 replays one arrival at its observer: carrier goes busy at
// the arrival instant; a decodable arrival is resolved against the
// observer's live arrivals and completes (with the folded busy-end) at
// the frame's delayed end, a sensed-only arrival just schedules the
// busy-end. Both follow-up events reuse the message's fan key — each
// observer gets exactly one of them per transmission, and the arrival
// and end instants differ (airtime is positive), so keys stay unique
// per instant.
func (m *Medium) deliverV3(msg *v3msg, now sim.Time) {
	obs := msg.obs
	m.busyStart(obs, now)
	if msg.decodable {
		a := m.arrivalFor(obs.shard)
		m.resolveArrival(obs, a, msg.f, msg.power, now, msg.end)
		a.withBusyEnd = true
		obs.sched.AtKeyedArg(msg.end, msg.key, completeEvent, a)
	} else {
		obs.sched.AtKeyedArg(msg.end, msg.key, busyEndEvent, obs)
	}
	m.releaseMsg(obs.shard, msg)
}

// ExchangeShardMessages drains every shard's outboxes into the
// destination schedulers. The shard coordinator calls it at each window
// barrier with all shard goroutines parked, so it runs single-threaded.
// Rows are slices walked in fixed (source shard, destination shard,
// append) order — deterministic by construction, and the keyed queue
// order makes the results injection-order-independent anyway.
func (m *Medium) ExchangeShardMessages() {
	for _, src := range m.shards {
		for dst, row := range src.outbox {
			if len(row) == 0 {
				continue
			}
			sched := m.shards[dst].sched
			for i, msg := range row {
				sched.AtKeyedArg(msg.when, msg.key, v3ArrivalEvent, msg)
				row[i] = nil
			}
			src.outbox[dst] = row[:0]
		}
	}
}
