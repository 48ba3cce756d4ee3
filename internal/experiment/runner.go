package experiment

import (
	"fmt"
	"sort"
	"sync/atomic"

	"dcfguard/internal/core"
	"dcfguard/internal/faults"
	"dcfguard/internal/frame"
	"dcfguard/internal/mac"
	"dcfguard/internal/medium"
	"dcfguard/internal/misbehave"
	"dcfguard/internal/obs"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
	"dcfguard/internal/stats"
	"dcfguard/internal/trace"
	"dcfguard/internal/traffic"
)

// Result holds one run's metrics.
type Result struct {
	Scenario string
	Seed     uint64
	Duration sim.Time

	// Diagnosis accuracy (§5's first two metrics). Zero for 802.11
	// runs, which have no monitor.
	CorrectDiagnosisPct float64
	MisdiagnosisPct     float64

	// Per-sender average goodput: honest ("AVG") and misbehaving
	// ("MSB") senders.
	AvgHonestKbps     float64
	AvgMisbehaverKbps float64
	// Mean per-packet MAC delay (enqueue → ACK), split the same way.
	// Lower delay is the other selfish incentive the paper names (§3.1).
	AvgHonestDelayMs     float64
	AvgMisbehaverDelayMs float64
	// TotalKbps is the summed goodput of all measured flows.
	TotalKbps float64
	// Fairness is Jain's index over measured flows.
	Fairness float64

	// Series is the Figure-8 per-bin diagnosis series (empty unless the
	// scenario sets BinSize).
	Series []stats.SeriesPoint

	// ThroughputBySender maps each measured flow source to its goodput.
	ThroughputBySender map[frame.NodeID]float64

	// ProvenMisbehaviors counts attempt-verification catches.
	ProvenMisbehaviors int
	// GreedyDetections counts sender-side G-audit failures.
	GreedyDetections int
	// CollusionsDetected counts watchdog collusion verdicts;
	// ColludingPairs lists the flagged (sender, receiver) pairs.
	CollusionsDetected int
	ColludingPairs     [][2]frame.NodeID

	// EventsFired is the simulation kernel's event count (for benches).
	EventsFired uint64

	// FaultDrops counts frames destroyed by the fault-injection error
	// model (zero when Scenario.Faults has no error model), and
	// Restarts the completed receiver crash/restart cycles under churn.
	FaultDrops uint64
	Restarts   int

	// Trace is the frame-level timeline, present when the scenario set
	// TraceEvents. It is in-memory observability state, not a metric,
	// and is excluded from journal serialization.
	Trace *trace.Recorder `json:"-"`

	// Obs is the run's assembled observability runtime (metrics registry
	// snapshot source, decision-trace ring), present when the scenario
	// set Observe. Like Trace it is in-memory state, not a journaled
	// metric.
	Obs *obs.Runtime `json:"-"`
}

// Run executes the scenario once with the given seed.
func Run(s Scenario, seed uint64) (Result, error) {
	return run(s, seed, nil)
}

// testKernelHook, when non-nil, observes the assembled kernel right
// before the event loop starts. Tests use it to plant failures on shard
// goroutines (the crash-forensics coverage in guard_shard_test.go);
// always nil outside tests.
var testKernelHook func(sim.Kernel)

// shardAssignments partitions node positions into `shards` spatial
// strips of near-equal node count: nodes are ranked by (X, Y, id) and
// the ranking split into contiguous runs. Strips only affect which
// scheduler a node lives on — cross-shard traffic volume, never results
// (keyed ordering makes those shard-count-invariant) — so a simple
// equal-count x-sweep is enough; it keeps each shard's neighbors mostly
// local for any roughly uniform topology.
func shardAssignments(positions []phys.Point, shards int) []int {
	n := len(positions)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := positions[order[a]], positions[order[b]]
		//detlint:allow floateq -- sort tie-break on exact coordinate equality, no tolerance wanted
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		//detlint:allow floateq -- sort tie-break on exact coordinate equality, no tolerance wanted
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return order[a] < order[b]
	})
	out := make([]int, n)
	for rank, idx := range order {
		out[idx] = rank * shards / n
	}
	return out
}

// run is the executor behind Run. armed, when non-nil, is invoked with
// the run's kernel (the scheduler, or the shard group for Shards > 1)
// and observability runtime immediately before the event loop starts:
// the watchdog in RunGuarded uses it to plant its cancellation hook and
// to capture the trace ring for crash dumps. When the loop exits on an
// Interrupt, run reports a *SeedFailure instead of the (incomplete)
// metrics.
func run(s Scenario, seed uint64, armed func(sim.Kernel, *obs.Runtime)) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	tp := s.Topo(seed)
	if err := tp.Validate(); err != nil {
		return Result{}, fmt.Errorf("experiment: %s: %w", s.Name, err)
	}
	// Every shard gets an outbox row per shard, so the count is bounded
	// before any scheduler is allocated.
	if s.Shards > len(tp.Positions) {
		return Result{}, fmt.Errorf("experiment: %s: %d shards exceed the topology's %d nodes",
			s.Name, s.Shards, len(tp.Positions))
	}

	// The kernel: one scheduler per shard (one total for serial runs).
	// Channel model v3 switches every scheduler to keyed event ordering
	// — also at Shards <= 1, which is what makes a serial v3 run
	// bit-identical to a sharded one. Owner IDs are node IDs; the
	// watchdog, when present, is the extra owner at len(Positions).
	shards := s.Shards
	if shards < 1 {
		shards = 1
	}
	scheds := make([]*sim.Scheduler, shards)
	for i := range scheds {
		scheds[i] = new(sim.Scheduler)
	}
	sched := scheds[0]
	keyed := s.Channel == ChannelV3
	if keyed {
		for _, sc := range scheds {
			sc.EnableKeyed(len(tp.Positions) + 1)
		}
	}
	// setOwner brackets setup-time scheduling with the owner whose key
	// it should carry; a no-op for non-keyed runs.
	setOwner := func(sc *sim.Scheduler, id int) {
		if keyed {
			sc.SetOwner(id)
		}
	}
	// Spatial shard assignment for every owner, including the watchdog's
	// centroid slot at index len(Positions). All zeros for serial runs.
	// Computed before the fault injector so per-shard fault streams can
	// partition by the receiver's shard.
	var dogPos phys.Point
	if s.Watchdog {
		var cx, cy float64
		for _, p := range tp.Positions {
			cx += p.X
			cy += p.Y
		}
		n := float64(len(tp.Positions))
		dogPos = phys.Point{X: cx / n, Y: cy / n}
	}
	shardOf := make([]int, len(tp.Positions)+1)
	if shards > 1 {
		all := make([]phys.Point, 0, len(tp.Positions)+1)
		all = append(all, tp.Positions...)
		all = append(all, dogPos) // harmless filler when no watchdog
		shardOf = shardAssignments(all, shards)
	}

	root := rng.New(seed)
	// Fault injection. The injector's key stream is derived only when an
	// error model is enabled, so disabled runs consume exactly the same
	// root draws as before (golden-pinned). Sharded runs partition the
	// per-link chain state by the receiver's shard — Drop executes on
	// the observer's completion event, hence on its shard's goroutine —
	// off one shared base key, so per-link draw sequences are
	// bit-identical to the serial injector's.
	var frameFaults medium.FrameFaults
	if s.Faults.ErrorsEnabled() {
		base := root.Stream("faults-frame").Uint64()
		if shards > 1 {
			frameFaults = faults.NewShardedInjector(s.Faults, base, shards,
				func(rx frame.NodeID) int { return shardOf[rx] })
		} else {
			frameFaults = faults.NewInjector(s.Faults, base)
		}
	}
	med := medium.New(sched, medium.Config{
		Model:             s.Shadowing,
		CoherenceInterval: s.CoherenceInterval,
		Channel:           s.Channel,
		FrameFaults:       frameFaults,
	}, root.Stream("medium"))

	rxRange, csRange := s.RxRangeM, s.CsRangeM
	//detlint:allow floateq -- config sentinel: unset scenario fields are literal 0, never computed
	if rxRange == 0 {
		rxRange = 250
	}
	//detlint:allow floateq -- config sentinel: unset scenario fields are literal 0, never computed
	if csRange == 0 {
		csRange = 550
	}
	radio := phys.CalibratedRadio(s.Shadowing, 24.5, rxRange, 0.5, csRange, 0.5, s.BitRate)

	misbehaving := make(map[frame.NodeID]bool, len(tp.Misbehaving))
	for _, id := range tp.Misbehaving {
		misbehaving[id] = true
	}
	receiverSet := make(map[frame.NodeID]bool, len(tp.Receivers))
	for _, id := range tp.Receivers {
		receiverSet[id] = true
	}

	collector := stats.NewCollector(tp.Misbehaving, s.BinSize)
	result := Result{Scenario: s.Name, Seed: seed, Duration: s.Duration}

	// Observability: build the runtime (nil when the scenario enables
	// nothing) and instrument the medium now; nodes and monitors attach
	// as they are built below. Instrumentation is pass-through by
	// contract — no RNG draws, no scheduled events — so it cannot move
	// the golden checksums.
	rt := s.Observe.Build()
	result.Obs = rt
	// The frame timeline is one more sink on the channel trace; sharded
	// runs feed it through the same fan-in as every other sink.
	if s.TraceEvents > 0 {
		result.Trace = trace.New(s.TraceEvents)
		rt = rt.Subscribe(obs.CategorySet(0).Set(obs.CatChannel), result.Trace)
	}
	med.Instrument(rt.Reg(), rt.TraceBus())
	// Sharded tracing: emissions happen on shard goroutines, so every
	// trace consumer gets a per-shard front buffered through a sim.Fanin
	// and replayed into the real sinks at window barriers, in serial
	// order (nil when tracing — or sharding — is off; all hooks below
	// are nil-safe).
	var obsFanin *obs.ShardFanin
	if shards > 1 {
		obsFanin = rt.NewShardFanin(scheds)
	}
	// traceBusFor is the bus a node's components emit on: its shard's
	// front bus when fan-in is active, the shared bus otherwise.
	traceBusFor := func(i int) *obs.Bus {
		if obsFanin != nil {
			return obsFanin.Bus(shardOf[i])
		}
		return rt.TraceBus()
	}

	// Monitors run on whichever shard their node lives on, so this
	// order-free tally is atomic rather than a plain increment.
	var proven atomic.Int64
	events := core.Events{
		OnClassified: collector.OnClassified,
		OnProvenMisbehavior: func(frame.NodeID, sim.Time) {
			proven.Add(1)
		},
	}

	// Build nodes in ascending ID order (determinism), allocated from
	// one contiguous arena so per-station hot state stays cache-adjacent.
	arena := mac.NewArena(len(tp.Positions))
	nodes := make([]*mac.Node, len(tp.Positions))
	monitors := make(map[frame.NodeID]*core.Monitor)
	policies := make(map[frame.NodeID]mac.BackoffPolicy)
	senderPolicies := make(map[frame.NodeID]*core.AssignedPolicy)

	for i := range tp.Positions {
		id := frame.NodeID(i)
		policies[id] = buildPolicy(s, id, misbehaving[id], root, senderPolicies)
	}

	greedy := make(map[frame.NodeID]bool, len(s.GreedyReceivers))
	for _, id := range s.GreedyReceivers {
		greedy[id] = true
	}
	colluding := make(map[frame.NodeID]bool, len(s.ColludingReceivers))
	for _, id := range s.ColludingReceivers {
		colluding[id] = true
	}
	for i := range tp.Positions {
		id := frame.NodeID(i)
		nsched := scheds[shardOf[i]]
		setOwner(nsched, i)
		var hook mac.ReceiverHook
		if s.Protocol == ProtocolCorrect && receiverSet[id] {
			params := s.Core
			if greedy[id] {
				params.AssignMode = core.AssignGreedy
			}
			if colluding[id] {
				params.AssignMode = core.AssignGreedy
				params.WaivePenalties = true
			}
			m := core.NewMonitor(id, params, s.MAC, root.StreamN("monitor-", uint64(id)), events)
			m.Instrument(rt.Reg(), traceBusFor(i))
			monitors[id] = m
			hook = m
		}
		cb := mac.Callbacks{
			OnDeliver: collector.OnDeliver,
			OnSendSuccess: func(id frame.NodeID) func(frame.NodeID, uint32, int, int, sim.Time, sim.Time) {
				return func(_ frame.NodeID, _ uint32, _, _ int, enqueuedAt, now sim.Time) {
					collector.OnSendComplete(id, now-enqueuedAt)
				}
			}(id),
		}
		nodes[i] = mac.NewNodeIn(arena, id, s.MAC, nsched, med, policies[id], hook, cb)
		nodes[i].Instrument(rt.Reg(), traceBusFor(i))
		med.Attach(id, tp.Positions[i], radio, nodes[i])
	}

	// Optional third-party watchdog at the topology centroid.
	var dog *core.Watchdog
	if s.Watchdog {
		dogParams := s.Core
		if s.Protocol != ProtocolCorrect {
			dogParams = core.DefaultParams()
		}
		dog = core.NewWatchdog(dogParams, s.MAC, s.BitRate)
		dog.OnCollusion = func(sender, receiver frame.NodeID, _ sim.Time) {
			result.CollusionsDetected++
			result.ColludingPairs = append(result.ColludingPairs,
				[2]frame.NodeID{sender, receiver})
		}
		setOwner(scheds[shardOf[len(tp.Positions)]], len(tp.Positions))
		med.Attach(frame.NodeID(len(tp.Positions)), dogPos, radio, dog)
	}

	// Sharded runs: bind every node to its shard's scheduler. Must
	// follow the last Attach (the medium's index builds eagerly here)
	// and precede traffic wiring.
	if shards > 1 {
		med.ConfigureShards(scheds, func(id frame.NodeID) int { return shardOf[id] })
		if obsFanin != nil {
			med.InstrumentShards(obsFanin.Buses())
		}
	}

	// Node churn: arm each monitor's crash/restart schedule on its own
	// shard's scheduler (shard 0 — the only scheduler — for serial
	// runs). Monitors are visited in ascending node-ID order with
	// per-monitor streams, and all draws happen here at single-threaded
	// setup, so the schedule is identical for every shard count; keyed
	// ordering then fires it identically too.
	if s.Faults.ChurnEnabled() {
		churnRoot := root.Stream("faults-churn")
		for i := range tp.Positions {
			if m, ok := monitors[frame.NodeID(i)]; ok {
				csched := scheds[shardOf[i]]
				setOwner(csched, i)
				faults.ScheduleChurn(csched, churnRoot.StreamN("node-", uint64(i)),
					s.Faults, m, s.Duration)
			}
		}
	}

	// Wire traffic. Each flow's source events go on (and are keyed to)
	// the sending node's scheduler.
	for _, f := range tp.Flows {
		n := nodes[f.Src]
		fsched := scheds[shardOf[f.Src]]
		setOwner(fsched, int(f.Src))
		if f.RateBps > 0 {
			traffic.NewCBR(fsched, n, f.Dst, s.PayloadBytes, f.RateBps).Start()
			continue
		}
		src := traffic.NewBacklogged(n, f.Dst, s.PayloadBytes, s.QueueDepth)
		n.SetQueueSpaceCallback(src.Refill)
		src.Start()
	}

	var kernel sim.Kernel = sched
	if shards > 1 {
		// Lookahead: the minimum delay by which an event on one shard
		// can affect another — v3's propagation delay, floored by the
		// slot time for form's sake (Validate guarantees slot > delay).
		la := medium.V3PropDelay
		if st := s.MAC.SlotTime; st < la {
			la = st
		}
		grp := sim.NewShardGroup(scheds, la)
		grp.Telemetry = NewShardTelemetry(rt.Reg(), shards)
		grp.Exchange = func() {
			med.ExchangeShardMessages()
			// The trace fan-in drains at the same barrier (all shards
			// parked): records replay into the real sinks in serial
			// order. A nil-safe no-op when tracing is off.
			obsFanin.Flush()
		}
		kernel = grp
	}
	if testKernelHook != nil {
		testKernelHook(kernel)
	}
	if armed != nil {
		armed(kernel, rt)
	}
	// Final drain: the last window's emissions (and, on an interrupt or
	// a shard-worker panic, the partial tail the crash dump wants) are
	// still buffered. Deferred so the flush also runs while a ShardPanic
	// unwinds toward RunGuarded's recover — the group parks every worker
	// before re-panicking on the coordinator, so the drain is safe and
	// the ring tail stays (when, key, seq)-ordered. The flush is a
	// nil-safe no-op when tracing is off, and idempotent.
	func() {
		defer obsFanin.Flush()
		kernel.Run(s.Duration)
	}()
	if kernel.Interrupted() {
		return Result{}, &SeedFailure{
			Scenario: s.Name, Seed: seed, TimedOut: true,
			Events: kernel.EventsFired(), SimTime: kernel.Now(),
			TraceTail: rt.TraceTail(),
		}
	}
	if result.Trace != nil {
		result.Trace.Finalize(kernel.Now())
	}

	// Collect metrics.
	result.CorrectDiagnosisPct = collector.CorrectDiagnosisPct()
	result.MisdiagnosisPct = collector.MisdiagnosisPct()
	result.AvgHonestKbps, result.AvgMisbehaverKbps =
		collector.SplitThroughputKbps(tp.Measured, s.Duration)
	result.AvgHonestDelayMs, result.AvgMisbehaverDelayMs =
		collector.SplitDelayMs(tp.Measured)
	result.Fairness = collector.Fairness(tp.Measured, s.Duration)
	result.Series = collector.DiagnosisSeries()
	result.ThroughputBySender = make(map[frame.NodeID]float64, len(tp.Measured))
	for _, id := range tp.Measured {
		tput := collector.ThroughputKbps(id, s.Duration)
		result.ThroughputBySender[id] = tput
		result.TotalKbps += tput
	}
	for _, p := range senderPolicies {
		result.GreedyDetections += p.GreedyDetections()
	}
	result.ProvenMisbehaviors = int(proven.Load())
	result.EventsFired = kernel.EventsFired()
	result.FaultDrops = med.FaultDrops()
	for i := range tp.Positions {
		if m, ok := monitors[frame.NodeID(i)]; ok {
			result.Restarts += m.Restarts()
		}
	}
	return result, nil
}

// buildPolicy constructs the sender policy for one node, honest or
// misbehaving, for the scenario's protocol.
func buildPolicy(s Scenario, id frame.NodeID, misbehaves bool, root *rng.Source,
	senderPolicies map[frame.NodeID]*core.AssignedPolicy) mac.BackoffPolicy {
	stream := root.StreamN("policy-", uint64(id))
	var honest mac.BackoffPolicy
	switch s.Protocol {
	case Protocol80211:
		honest = mac.NewStandardPolicy(stream)
	case ProtocolCorrect:
		ap := core.NewAssignedPolicy(id, s.MAC, stream)
		ap.VerifyReceiver = s.VerifyReceiverAtSenders
		senderPolicies[id] = ap
		honest = ap
	}
	if !misbehaves {
		return honest
	}
	switch s.Strategy {
	case StrategyPartial:
		return misbehave.NewPartial(honest, s.PM)
	case StrategyQuarterWindow:
		return misbehave.NewQuarterWindow(stream.Stream("quarter"))
	case StrategyNoDoubling:
		return misbehave.NewNoDoubling(stream.Stream("nodouble"), s.MAC.CWMin)
	case StrategyAttemptLiar:
		return misbehave.NewAttemptLiar(misbehave.NewPartial(honest, s.PM))
	default:
		panic(fmt.Sprintf("experiment: unreachable strategy %d", s.Strategy))
	}
}
