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
// speed of light, versus the paper's ≤ 250 m ranges — but safe for the
// MAC: every DCF response gap (SIFS, DIFS, backoff slots) is measured
// at the receiver from its local arrival instants, and the protocol's
// timeout slack (2 slots around each expected response) absorbs the
// extra 2δ round trip because δ < SlotTime. The experiment layer
// asserts that inequality when deriving the lookahead. It is not safe
// for the monitor: the receiver's idle-slot count gains up to one round
// trip per idle interval, which biases v3 detection (DESIGN.md §11).
//
// Fan runs. Delivery does not schedule one event per (transmission,
// observer): fanOut gathers a transmission's sensed observers into one
// fan run per observer shard, in ascending ID order, as for v2 (see
// fanOutV2). A v3 run is two queue entries, both keyed sim.FanKey(tx,
// frame, first observer): its arrival at now+δ (carrier busy, and
// admission of each decodable arrival) and its completion at end+δ
// (completeRun, shared with v2). Inside the run, sim.Scheduler.Substep
// hands the firing key to each later observer, so owner counters,
// fan-in tags and EventsFired are those of one event per observer. The
// batching is exact — the (when, key) handler sequence is unchanged,
// call for call — because at a run's instant no other event can carry a
// key inside the run's range (tx, frame, ·): arrival and completion of
// one frame never share an instant (airtime is positive), owner keys
// sort above every fan key, and a handler's Transmit schedules only at
// ≥ now+δ. So no event ever lies between two of a run's observers in
// (when, key) order, and firing them back to back is the order one
// entry per observer would have fired them in.
//
// Sharding (ConfigureShards) assigns each node to one scheduler shard.
// A run on the transmitter's shard is scheduled directly; runs for
// other shards are buffered in per-(source, destination) outboxes and
// injected at the window barrier by ExchangeShardMessages, which the
// coordinator calls single-threadedly. Outboxes are slices drained in
// fixed (source, destination, append) order — never map iteration —
// though the queue's total (time, key) order makes results independent
// of injection order anyway.
package medium

import (
	"fmt"

	"dcfguard/internal/frame"
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
	// freeArrivals/freeRuns pool this shard's records. A record is
	// allocated by the goroutine that owns the pool's shard and released
	// by the goroutine of the shard it was delivered on, so each pool is
	// only ever touched by its own shard's goroutine.
	freeArrivals []*arrival
	freeRuns     []*fanRun
	// runs is fanOutV3's per-transmission scratch, one slot per
	// observer shard, for transmissions sent from this shard.
	runs []*fanRun
	// outbox[dst] buffers the fan runs sent from this shard to nodes of
	// shard dst within the current window; the coordinator drains it at
	// the barrier.
	outbox [][]*fanRun

	transmissions uint64
	deliveries    uint64
	collisions    uint64
	faultDrops    uint64
}

// fanRun is one transmission's sensed observers on one shard, in
// ascending ID order: under v3 one queue entry at the arrival instant
// and one at the delayed end, keyed as the package comment says; under
// v2 one FIFO entry at the end, with the transmitter last (fanOutV2).
type fanRun struct {
	sched     *sim.Scheduler // the observers' shard scheduler
	f         frame.Frame
	tx, frame uint64 // transmitter ID and frame index of the fan keys
	when, end sim.Time
	obs       []fanObs
}

// key returns observer i's fan key; observer 0's is the run's queue key.
func (r *fanRun) key(i int) uint64 {
	return sim.FanKey(r.tx, r.frame, uint64(r.obs[i].n.id))
}

// fanObs is one observer of a fan run.
type fanObs struct {
	n         *node
	power     float64
	decodable bool
	// a is the observer's admitted arrival between the run's arrival
	// and its completion (decodable observers only).
	a *arrival
}

// Pooled trampolines for a fan run's two queue entries.
func fanArriveEvent(arg any, when sim.Time) {
	r := arg.(*fanRun)
	r.obs[0].n.m.arriveRun(r, when)
}

func fanCompleteEvent(arg any, when sim.Time) {
	r := arg.(*fanRun)
	r.obs[0].n.m.completeRun(r, when)
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
		m.shards[i] = &mediumShard{sched: s, runs: make([]*fanRun, ns), outbox: make([][]*fanRun, ns)}
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

// openRun takes a fan-run record from the transmitter's shard pool (or
// the serial pool), or allocates one, for tx's next frame f delivered on
// sched from when to end.
func (m *Medium) openRun(tx *node, sched *sim.Scheduler, f frame.Frame, when, end sim.Time) *fanRun {
	pool := &m.freeRuns
	if m.sharded {
		pool = &m.shards[tx.shard].freeRuns
	}
	r := take(pool)
	r.sched, r.f = sched, f
	r.tx, r.frame = uint64(tx.id), tx.txCount
	r.when, r.end = when, end
	return r
}

// releaseRun returns a completed run to the pool of the shard it was
// delivered on (runs migrate between pools with the traffic), keeping
// its observer slice's capacity.
func (m *Medium) releaseRun(shard int, r *fanRun) {
	clear(r.obs)
	*r = fanRun{obs: r.obs[:0]}
	if m.sharded {
		sh := m.shards[shard]
		sh.freeRuns = append(sh.freeRuns, r)
		return
	}
	m.freeRuns = append(m.freeRuns, r)
}

// arrivalFor takes an arrival record from the shard's pool (or the
// serial pool), or allocates one.
func (m *Medium) arrivalFor(shard int) *arrival {
	if m.sharded {
		return take(&m.shards[shard].freeArrivals)
	}
	return take(&m.freeArrivals)
}

// take pops a record from pool, or allocates one.
func take[T any](pool *[]*T) *T {
	n := len(*pool)
	if n == 0 {
		return new(T)
	}
	r := (*pool)[n-1]
	(*pool)[n-1] = nil
	*pool = (*pool)[:n-1]
	return r
}

// fanOutV3 fans one transmission out under channel model v3: fanOut
// gathers the sensed observers into one run per observer shard, from
// now+δ to end+δ, and each run's arrival entry is scheduled directly
// when the shard is the transmitter's own and buffered in the outbox
// for the barrier exchange otherwise.
func (m *Medium) fanOutV3(tx *node, f frame.Frame, now, end sim.Time) {
	var serial [1]*fanRun
	runs := serial[:]
	if m.sharded {
		runs = m.shards[tx.shard].runs
	}
	m.fanOut(tx, f, now+V3PropDelay, end+V3PropDelay, runs)
	for si, r := range runs {
		if r == nil {
			continue
		}
		runs[si] = nil
		if si == tx.shard {
			r.sched.AtKeyedArg(r.when, r.key(0), fanArriveEvent, r)
		} else {
			outbox := m.shards[tx.shard].outbox
			outbox[si] = append(outbox[si], r)
		}
	}
	// The transmitter hears its own frame without delay: its busy-end
	// is its own entry at end, not end+δ.
	tx.sched.AtArg(end, busyEndEvent, tx)
}

// arriveRun replays a run's arrivals, observer by observer under each
// one's own fan key. It then schedules the run's completion at the
// frame's delayed end under the run key — arrival and end instants
// differ (airtime is positive), so the key stays unique per instant.
func (m *Medium) arriveRun(r *fanRun, now sim.Time) {
	for i := range r.obs {
		if i > 0 {
			r.sched.Substep(r.key(i))
		}
		m.arrive(r, &r.obs[i], now)
	}
	r.sched.AtKeyedArg(r.end, r.key(0), fanCompleteEvent, r)
}

// arrive is one member's arrival: its carrier goes busy, then a
// decodable frame is resolved against the member's live arrivals.
func (m *Medium) arrive(r *fanRun, o *fanObs, now sim.Time) {
	m.busyStart(o.n, now)
	if o.decodable {
		o.a = m.arrivalFor(o.n.shard)
		m.resolveArrival(o.n, o.a, r.f, o.power, now, r.end)
	}
}

// completeRun finishes a run at its end, member by member: a decodable
// arrival completes, then the carrier busy-end follows (FrameReceived
// before CarrierIdle). Each later member counts as one fired event,
// under its own fan key (v3, Substep) or in FIFO order (v2,
// SubstepFIFO, where the transmitter is the last member).
func (m *Medium) completeRun(r *fanRun, now sim.Time) {
	for i := range r.obs {
		o := &r.obs[i]
		switch {
		case i == 0:
		case m.cfg.Channel == ChannelV3:
			r.sched.Substep(r.key(i))
		default:
			r.sched.SubstepFIFO()
		}
		if o.a != nil {
			m.complete(o.n, o.a)
		}
		m.busyEnd(o.n, now)
	}
	m.releaseRun(r.obs[0].n.shard, r)
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
			for i, r := range row {
				r.sched.AtKeyedArg(r.when, r.key(0), fanArriveEvent, r)
				row[i] = nil
			}
			src.outbox[dst] = row[:0]
		}
	}
}
