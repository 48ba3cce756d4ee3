package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"dcfguard/internal/core"
	"dcfguard/internal/experiment"
	"dcfguard/internal/faults"
	"dcfguard/internal/frame"
	"dcfguard/internal/medium"
	"dcfguard/internal/obs"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
	"dcfguard/internal/trace"
)

// Record once, replay per layer: the traced pass records one subject
// run of each workload — its transmissions, and the channel and MAC
// trace records the monitors' inputs can be rebuilt from — and then
// times each layer alone on fresh instances fed that recording. Each
// replay is checked against the counters of the recorded run, so a
// replay that stops reproducing the run shows up as a failure rather
// than as a faster number.

// recording is one subject run as the replays consume it.
type recording struct {
	sub    subject
	result experiment.Result
	snap   obs.Snapshot
	// txs are the channel's "tx" records, every transmission in order.
	txs []obs.Record
	// frames is the frame timeline (Result.Trace), kept only when the
	// subject runs monitors: their replay needs the RTS attempt numbers
	// and NAV durations the tx records omit.
	frames []trace.Event
	// recs are the other records kept: channel and MAC records at
	// monitor nodes, or every record for obs subjects.
	recs []obs.Record
	// monitors counts the nodes running a core.Monitor.
	monitors int
}

// recordSink splits the trace into tx records and the records keep
// accepts.
type recordSink struct {
	keep func(obs.Record) bool
	txs  []obs.Record
	recs []obs.Record
}

func (s *recordSink) Emit(r obs.Record) {
	if r.Cat == obs.CatChannel && r.Event == "tx" {
		s.txs = append(s.txs, r)
	}
	if s.keep(r) {
		s.recs = append(s.recs, r)
	}
}

// record runs the subject with channel tracing and the metrics registry
// on, keeping what the replays need. This is the one place a run is
// recorded. The frame timeline comes from Result.Trace only for
// subjects with monitors, which are small: Recorder.MarkDelivered scans
// back through the timeline, which at 4000 nodes takes a minute per run.
func record(sub subject) (recording, error) {
	s := sub.s
	reg := obs.NewRegistry()
	monitors := monitorNodes(s, sub.seed)
	n := 0
	for _, m := range monitors {
		if m {
			n++
		}
	}
	sink := &recordSink{keep: func(obs.Record) bool { return false }}
	cfg := &obs.Config{Registry: reg, Categories: obs.CategorySet(0).Set(obs.CatChannel), Sinks: []obs.Sink{sink}}
	switch {
	case sub.obs:
		sink.keep = func(obs.Record) bool { return true }
		cfg.Categories = obs.AllCategories()
	case n > 0:
		sink.keep = func(r obs.Record) bool { return int(r.Node) < len(monitors) && monitors[r.Node] }
		cfg.Categories = cfg.Categories.Set(obs.CatMACState)
	}
	if n > 0 {
		s.TraceEvents = math.MaxInt32
	}
	s.Observe = cfg
	res, err := experiment.Run(s, sub.seed)
	if err != nil {
		return recording{}, err
	}
	rec := recording{sub: sub, result: res, snap: reg.Snapshot(), txs: sink.txs, recs: sink.recs, monitors: n}
	if res.Trace != nil {
		rec.frames = res.Trace.Events()
	}
	return rec, nil
}

// monitorNodes marks the nodes that run a core.Monitor: the topology's
// receivers under the CORRECT protocol.
func monitorNodes(s experiment.Scenario, seed uint64) []bool {
	tp := s.Topo(seed)
	m := make([]bool, len(tp.Positions))
	if s.Protocol == experiment.ProtocolCorrect {
		for _, id := range tp.Receivers {
			m[id] = true
		}
	}
	return m
}

// counter sums a registry counter over every node.
func counter(snap obs.Snapshot, scope, name string) uint64 {
	var n uint64
	for _, c := range snap.Counters {
		if c.Scope == scope && c.Name == name {
			n += c.Value
		}
	}
	return n
}

// runStreams re-derives the run's root RNG streams in the order the
// experiment runner draws them: the fault injector's key (when frame
// errors are on), the medium's stream, one policy stream per node, then
// one monitor stream per monitor node in ID order.
func runStreams(s experiment.Scenario, seed uint64, nodes int, monitors []bool) (faultKey uint64, med *rng.Source, mon []*rng.Source) {
	root := rng.New(seed)
	if s.Faults.ErrorsEnabled() {
		faultKey = root.Stream("faults-frame").Uint64()
	}
	med = root.Stream("medium")
	for i := 0; i < nodes; i++ {
		root.StreamN("policy-", uint64(i))
	}
	mon = make([]*rng.Source, nodes)
	for i := 0; i < nodes; i++ {
		if monitors[i] {
			mon[i] = root.StreamN("monitor-", uint64(i))
		}
	}
	return faultKey, med, mon
}

// --- medium ---------------------------------------------------------------

// stubListener counts what the medium tells a node.
type stubListener struct{ busy, idle, frames, corrupted uint64 }

func (l *stubListener) CarrierBusy(sim.Time)                { l.busy++ }
func (l *stubListener) CarrierIdle(sim.Time)                { l.idle++ }
func (l *stubListener) FrameReceived(frame.Frame, sim.Time) { l.frames++ }
func (l *stubListener) FrameCorrupted(sim.Time)             { l.corrupted++ }

// replayTx is one recorded transmission.
type replayTx struct {
	start sim.Time
	f     frame.Frame
}

// txFrames rebuilds each transmitted frame from its tx record: type,
// ends, sequence and, for DATA, the scenario's payload. The fields a
// tx record omits (attempt number, NAV, assigned backoff) do not change
// what the medium does with a frame; its airtime must match.
func txFrames(s experiment.Scenario, txs []obs.Record) ([]replayTx, error) {
	types := map[string]frame.Type{}
	for _, t := range []frame.Type{frame.RTS, frame.CTS, frame.Data, frame.Ack} {
		types[t.String()] = t
	}
	out := make([]replayTx, len(txs))
	for i, r := range txs {
		t, ok := types[r.Aux]
		if !ok {
			return nil, fmt.Errorf("medium replay: tx record of unknown frame type %q", r.Aux)
		}
		f := frame.Frame{Type: t, Src: r.Node, Dst: r.Peer, Seq: r.Seq, AssignedBackoff: -1}
		switch t {
		case frame.RTS:
			f.Attempt = 1
		case frame.Data:
			f.PayloadBytes = s.PayloadBytes
		}
		if got := f.Airtime(s.BitRate); got != sim.Time(r.A) {
			return nil, fmt.Errorf("medium replay: rebuilt %v lasts %v, recorded %v", f, got, sim.Time(r.A))
		}
		out[i] = replayTx{start: r.Time, f: f}
	}
	return out, nil
}

// txChain replays the recorded transmissions in start order, each one
// scheduling the next, so the queue holds what the medium schedules
// rather than the whole recording.
type txChain struct {
	sched *sim.Scheduler
	med   *medium.Medium
	txs   []replayTx
	next  int
	keyed bool
}

func replayTransmit(arg any, _ sim.Time) {
	c := arg.(*txChain)
	tx := c.txs[c.next]
	c.med.Transmit(tx.f.Src, tx.f)
	c.next++
	if c.next < len(c.txs) {
		c.schedule()
	}
}

func (c *txChain) schedule() {
	tx := c.txs[c.next]
	if c.keyed {
		c.sched.SetOwner(int(tx.f.Src))
	}
	c.sched.AtArg(tx.start, replayTransmit, c)
}

// replayMedium feeds the recorded transmissions into a fresh medium
// with the run's topology, radios, channel model and fault injector,
// and counting stub listeners. It returns ns per transmission and an
// error when the deliveries, collisions or fault drops differ from the
// recorded run's.
func replayMedium(rec recording) (float64, error) {
	s, seed := rec.sub.s, rec.sub.seed
	txs, err := txFrames(s, rec.txs)
	if err != nil {
		return 0, err
	}
	if len(txs) == 0 {
		return 0, fmt.Errorf("medium replay: no transmissions recorded")
	}
	tp := s.Topo(seed)
	sched := new(sim.Scheduler)
	keyed := s.Channel == experiment.ChannelV3
	if keyed {
		sched.EnableKeyed(len(tp.Positions) + 1)
	}
	faultKey, src, _ := runStreams(s, seed, len(tp.Positions), make([]bool, len(tp.Positions)))
	cfg := medium.Config{Model: s.Shadowing, CoherenceInterval: s.CoherenceInterval, Channel: s.Channel}
	if s.Faults.ErrorsEnabled() {
		cfg.FrameFaults = faults.NewInjector(s.Faults, faultKey)
	}
	med := medium.New(sched, cfg, src)
	rx, cs := s.RxRangeM, s.CsRangeM
	if rx <= 0 {
		rx = 250
	}
	if cs <= 0 {
		cs = 550
	}
	// The experiment runner's radio: 24.5 dBm, 50% reception at rx and
	// 50% carrier sense at cs.
	radio := phys.CalibratedRadio(s.Shadowing, 24.5, rx, 0.5, cs, 0.5, s.BitRate)
	stub := &stubListener{}
	for i, p := range tp.Positions {
		med.Attach(frame.NodeID(i), p, radio, stub)
	}
	chain := &txChain{sched: sched, med: med, txs: txs, keyed: keyed}
	chain.schedule()
	t0 := time.Now()
	sched.Run(s.Duration)
	took := time.Since(t0)

	tx, del, col := med.Stats()
	want := [4]uint64{counter(rec.snap, "medium", "transmissions"), counter(rec.snap, "medium", "deliveries"),
		counter(rec.snap, "medium", "collisions"), counter(rec.snap, "medium", "fault_drops")}
	if got := [4]uint64{tx, del, col, med.FaultDrops()}; got != want {
		return 0, fmt.Errorf("medium replay: transmissions/deliveries/collisions/fault drops %v, recorded run %v", got, want)
	}
	return float64(took) / float64(tx), nil
}

// --- core -----------------------------------------------------------------

// monitorCall is one recorded call into a receiver's monitor.
type monitorCall struct {
	kind       uint8
	node       frame.NodeID
	f          frame.Frame // RTS, DATA
	start, end sim.Time    // busy/idle at end
	to         frame.NodeID
	seq        uint32
}

const (
	callBusy uint8 = iota
	callIdle
	callRTS
	callData
	callAck
)

type frameKey struct {
	src  frame.NodeID
	seq  uint32
	kind string
	end  sim.Time
}

// monitorState tracks what the MAC of a monitor node decides on before
// handing an RTS to its monitor: its sender state and its NAV.
type monitorState struct {
	macState   string
	nav        sim.Time
	busy       bool
	lastBusyAt sim.Time
	probes     []sim.Time // RTS ends whose NAV-reset probe is pending
}

// monitorCalls rebuilds, from the recorded channel and MAC records and
// the frame timeline, the calls each monitor received: carrier busy and
// idle, RTS and DATA addressed to it, and the end of each ACK it sent.
// An RTS reaches the monitor only when the node's MAC is idle or
// contending and its NAV has expired (802.11's NAV-reset rule included),
// as in mac.Node.
func monitorCalls(rec recording, monitors []bool) ([]monitorCall, error) {
	s := rec.sub.s
	byKey := make(map[frameKey]trace.Event, len(rec.frames))
	for _, ev := range rec.frames {
		byKey[frameKey{ev.Src, ev.Frame.Seq, ev.Frame.Type.String(), ev.End}] = ev
	}
	probe := s.MAC.SIFS + frame.Airtime(frame.CTSBytes, s.BitRate) + 2*s.MAC.SlotTime
	states := make([]monitorState, len(monitors))
	for i := range states {
		states[i].macState = "idle"
	}
	var calls []monitorCall
	for _, r := range rec.recs {
		m := r.Node
		if m < 0 || int(m) >= len(monitors) || !monitors[m] {
			continue
		}
		st := &states[m]
		// NAV-reset probes due by now (mac.Node.maybeResetNAV).
		for len(st.probes) > 0 && st.probes[0]+probe <= r.Time {
			rtsEnd := st.probes[0]
			st.probes = st.probes[1:]
			at := rtsEnd + probe
			if st.lastBusyAt <= rtsEnd && !st.busy && st.nav > at {
				st.nav = at
			}
		}
		switch {
		case r.Cat == obs.CatMACState:
			st.macState = r.Event
		case r.Cat != obs.CatChannel:
		case r.Event == "busy":
			st.busy, st.lastBusyAt = true, r.Time
			calls = append(calls, monitorCall{kind: callBusy, node: m, end: r.Time})
		case r.Event == "idle":
			st.busy = false
			calls = append(calls, monitorCall{kind: callIdle, node: m, end: r.Time})
		case r.Event == "tx" && r.Aux == frame.Ack.String():
			calls = append(calls, monitorCall{kind: callAck, node: m, to: r.Peer, seq: r.Seq, end: r.Time + sim.Time(r.A)})
		case r.Event == "deliver":
			ev, ok := byKey[frameKey{r.Peer, r.Seq, r.Aux, r.Time}]
			if !ok {
				return nil, fmt.Errorf("core replay: delivery of %s %d→ seq %d at %v missing from the frame trace", r.Aux, r.Peer, r.Seq, r.Time)
			}
			f := ev.Frame
			switch {
			case f.Dst != m:
				if f.Duration > 0 && r.Time+f.Duration > st.nav {
					st.nav = r.Time + f.Duration
				}
				if f.Duration > 0 && f.Type == frame.RTS {
					st.probes = append(st.probes, r.Time)
				}
			case f.Type == frame.RTS:
				if (st.macState == "idle" || st.macState == "contend") && r.Time >= st.nav {
					calls = append(calls, monitorCall{kind: callRTS, node: m, f: f, start: ev.Start, end: r.Time})
				}
			case f.Type == frame.Data:
				calls = append(calls, monitorCall{kind: callData, node: m, f: f, start: ev.Start, end: r.Time})
			}
		}
	}
	return calls, nil
}

// replayCore feeds each monitor node's rebuilt input into a fresh
// core.NewMonitor with the run's parameters and RNG stream. It returns
// ns per checked packet and an error unless the replay reproduces the
// recorded run's packet and deviation counts exactly.
func replayCore(rec recording) (float64, error) {
	s, seed := rec.sub.s, rec.sub.seed
	monitors := monitorNodes(s, seed)
	calls, err := monitorCalls(rec, monitors)
	if err != nil {
		return 0, err
	}
	_, _, streams := runStreams(s, seed, len(monitors), monitors)
	mons := make([]*core.Monitor, len(monitors))
	for i, ok := range monitors {
		if ok {
			mons[i] = core.NewMonitor(frame.NodeID(i), s.Core, s.MAC, streams[i], core.Events{})
		}
	}
	t0 := time.Now()
	for i := range calls {
		c := &calls[i]
		m := mons[c.node]
		switch c.kind {
		case callBusy:
			m.OnCarrierBusy(c.end)
		case callIdle:
			m.OnCarrierIdle(c.end)
		case callRTS:
			m.OnRTS(c.f, c.start, c.end)
		case callData:
			m.OnData(c.f, c.start, c.end)
		case callAck:
			m.OnAckSent(c.to, c.seq, c.end)
		}
	}
	took := time.Since(t0)

	var packets, deviations uint64
	tp := s.Topo(seed)
	for _, m := range mons {
		if m == nil {
			continue
		}
		for j := range tp.Positions {
			p, d, _ := m.SenderStats(frame.NodeID(j))
			packets += uint64(p)
			deviations += uint64(d)
		}
	}
	wantP, wantD := counter(rec.snap, "monitor", "packets"), counter(rec.snap, "monitor", "deviations")
	if packets != wantP || deviations != wantD {
		return 0, fmt.Errorf("core replay: %d packets, %d deviations; recorded run %d, %d", packets, deviations, wantP, wantD)
	}
	if packets == 0 {
		return 0, fmt.Errorf("core replay: no packets checked")
	}
	return float64(took) / float64(packets), nil
}

// --- obs ------------------------------------------------------------------

// replayObs emits the recorded trace through a fresh obs.Bus into the
// JSONL, diagnosis-CSV and ring sinks (buffered; nothing is written).
// It returns ns per record.
func replayObs(rec recording, dir string) (float64, error) {
	if len(rec.recs) == 0 {
		return 0, fmt.Errorf("obs replay: no records captured")
	}
	bus := &obs.Bus{}
	all := obs.AllCategories()
	jsonl := obs.NewJSONLSink(filepath.Join(dir, "replay.jsonl"))
	diag := obs.NewDiagnosisCSV(filepath.Join(dir, "replay.csv"))
	bus.Subscribe(all, obs.NewRingSink(obs.DefaultRingSize))
	bus.Subscribe(all, jsonl)
	bus.Subscribe(all, diag)
	t0 := time.Now()
	for _, r := range rec.recs {
		bus.Emit(r)
	}
	took := time.Since(t0)
	if jsonl.Len() != len(rec.recs) {
		return 0, fmt.Errorf("obs replay: JSONL holds %d of %d records", jsonl.Len(), len(rec.recs))
	}
	return float64(took) / float64(len(rec.recs)), nil
}

// --- sim ------------------------------------------------------------------

// hold drives the classic hold model on a scheduler: every event fired
// schedules one successor a random increment later until the budget is
// spent, so the pending population stays constant.
type hold struct {
	sched   *sim.Scheduler
	left    uint64
	n       uint64
	meanInc float64
}

func holdEvent(arg any, now sim.Time) {
	h := arg.(*hold)
	if h.left == 0 {
		return
	}
	h.left--
	h.n++
	h.sched.AtArg(now+sim.Time(2*h.meanInc*rng.CounterUniform(holdKey, h.n)), holdEvent, h)
}

const holdKey = 0x5eed

// replaySim fires events on a fresh sim.Scheduler through the hold
// model at the given pending population, with increments that spread
// the events over the run's simulated duration as the run did. It
// returns ns per event.
func replaySim(events uint64, pending int, d sim.Time) float64 {
	if pending < 1 {
		pending = 1
	}
	if events < uint64(pending) {
		events = uint64(pending)
	}
	h := &hold{sched: new(sim.Scheduler), left: events - uint64(pending)}
	h.meanInc = float64(d) * float64(pending) / float64(events)
	for i := 0; i < pending; i++ {
		h.sched.AtArg(sim.Time(2*h.meanInc*rng.CounterUniform(holdKey^1, uint64(i))), holdEvent, h)
	}
	t0 := time.Now()
	h.sched.Run(math.MaxInt64)
	return float64(time.Since(t0)) / float64(h.sched.EventsFired())
}

// pendingEvents estimates the run's pending-event population from the
// sharded kernel's per-shard queue depth at the last barrier: read from
// the recording when the subject is sharded, otherwise from a short
// two-shard probe of the same scenario on channel v3.
func pendingEvents(rec recording) (int, error) {
	snap := rec.snap
	if rec.sub.s.Shards <= 1 {
		s := rec.sub.s
		s.Channel = experiment.ChannelV3
		s.Shards = parallelism
		if s.Duration > 100*sim.Millisecond {
			s.Duration = 100 * sim.Millisecond
		}
		reg := obs.NewRegistry()
		s.Observe = &obs.Config{Registry: reg}
		if _, err := experiment.Run(s, rec.sub.seed); err != nil {
			return 0, fmt.Errorf("queue-depth probe: %w", err)
		}
		snap = reg.Snapshot()
	}
	depth := 0.0
	for _, g := range snap.Gauges {
		if g.Scope == "shard" && g.Name == "queue_depth" {
			depth += g.Value
		}
	}
	return int(depth), nil
}
