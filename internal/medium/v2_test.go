package medium

import (
	"fmt"
	"strconv"
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

// v2Config returns a shadowed (σ = 1 dB) config on channel model v2.
func v2Config(coherence sim.Time) Config {
	return Config{Model: phys.DefaultShadowing(), CoherenceInterval: coherence}
}

// shadowedRadio builds the paper's calibrated radio for the shadowed
// (σ = 1 dB) model, with ranges scaled by the given factor — the
// equivalence quickcheck mixes two radio classes to exercise the
// heterogeneous-threshold paths in buildIndex.
func shadowedRadio(rangeScale float64) phys.Radio {
	m := phys.DefaultShadowing()
	return phys.CalibratedRadio(m, 24.5, 250*rangeScale, 0.5, 550*rangeScale, 0.5, 2_000_000)
}

// v2TraceSetup builds a v2 medium over pseudo-random positions in a
// width × 700 m arena and schedules a deterministic script of
// interleaved RTS/DATA transmissions from every node. Nodes cycle
// through three radio classes: the paper radio, one with ranges scaled
// to 0.6 (other thresholds, same power), and the paper radio at +6 dB
// transmit power (same thresholds, twice the reach), so the index's
// per-power reach and its reach pre-filter are both exercised. It
// returns the scheduler and per-node recorders.
func v2TraceSetup(seed uint64, n int, width float64, coherence sim.Time, brute bool) (*sim.Scheduler, []*recorder) {
	var sched sim.Scheduler
	med := New(&sched, v2Config(coherence), rng.New(seed))
	med.bruteForce = brute

	pos := rng.New(seed).Stream("positions")
	recs := make([]*recorder, n)
	for i := 0; i < n; i++ {
		recs[i] = &recorder{}
		radio := shadowedRadio(1)
		switch i % 3 {
		case 1:
			radio = shadowedRadio(0.6)
		case 2:
			radio.TxPowerDBm += 6
		}
		p := phys.Point{X: pos.Float64() * width, Y: pos.Float64() * 700}
		med.Attach(frame.NodeID(i), p, radio, recs[i])
	}

	// Script: node k transmits at k·spacing (+ per-round stride), frames
	// alternating short RTS and long DATA so transmissions from distinct
	// senders overlap, while each sender's own are disjoint.
	const rounds = 4
	spacing := 300 * sim.Microsecond
	for r := 0; r < rounds; r++ {
		for k := 0; k < n; k++ {
			src := frame.NodeID(k)
			dst := frame.NodeID((k + 1 + r) % n)
			var f frame.Frame
			if (k+r)%2 == 0 {
				f = testRTS(src, dst)
			} else {
				f = frame.Frame{Type: frame.Data, Src: src, Dst: dst,
					Seq: uint32(r), PayloadBytes: 512}
			}
			at := sim.Time(r*n+k) * spacing
			ff := f
			sched.At(at, func() { med.Transmit(ff.Src, ff) })
		}
	}
	sched.Run(sim.Time(rounds*n)*spacing + sim.Second)
	return &sched, recs
}

// TestV2GridMatchesBruteForce is the grid-index equivalence quickcheck:
// under channel model v2 every shadowing draw is a pure function of the
// (transmitter, observer, frame) tuple, so the spatially-indexed medium
// must produce event-for-event identical traces to an all-pairs
// brute-force enumeration with no feasibility pruning — across random
// topologies, all three radio classes, and coherence on/off. A mismatch
// means either the grid missed a feasible pair or the NormBound pruning
// (or the per-transmitter reach pre-filter) discarded a reachable one.
// The 200-node case is the scaled corridor (150 m of width per node):
// it spans hundreds of grid cells and leaves nodes with few or no
// neighbors.
func TestV2GridMatchesBruteForce(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	// 2500 m wide: several grid cells, some pairs out of interaction
	// range entirely.
	sizes := []struct {
		n     int
		width float64
	}{{9, 2500}, {16, 2500}, {200, 150 * 200}}
	if testing.Short() {
		seeds = seeds[:2]
		sizes = sizes[:1]
	}
	for _, coherence := range []sim.Time{0, 20 * sim.Microsecond} {
		for _, size := range sizes {
			for _, seed := range seeds {
				n, width := size.n, size.width
				name := fmt.Sprintf("n%d-seed%d-coh%v", n, seed, coherence > 0)
				t.Run(name, func(t *testing.T) {
					_, gridRecs := v2TraceSetup(seed, n, width, coherence, false)
					_, bruteRecs := v2TraceSetup(seed, n, width, coherence, true)
					for i := range gridRecs {
						g, b := gridRecs[i].events, bruteRecs[i].events
						if len(g) != len(b) {
							t.Fatalf("node %d: %d events with grid, %d brute-force",
								i, len(g), len(b))
						}
						for j := range g {
							if g[j] != b[j] {
								t.Fatalf("node %d event %d: grid %+v, brute-force %+v",
									i, j, g[j], b[j])
							}
						}
					}
				})
			}
		}
	}
}

// TestV2FarPairPruned checks the index actually prunes: a pair far
// outside the maximum interaction radius must not appear in any
// neighbor list, while nearby pairs must.
func TestV2FarPairPruned(t *testing.T) {
	var sched sim.Scheduler
	med := New(&sched, v2Config(0), rng.New(1))
	recs := []*recorder{{}, {}, {}}
	med.Attach(0, phys.Point{X: 0}, shadowedRadio(1), recs[0])
	med.Attach(1, phys.Point{X: 100}, shadowedRadio(1), recs[1])
	med.Attach(2, phys.Point{X: 50000}, shadowedRadio(1), recs[2])
	med.Transmit(0, testRTS(0, 1))
	sched.Run(sim.Second)

	tx := med.byID[0]
	if len(tx.neighbors) != 1 || tx.neighbors[0].obs.id != 1 {
		ids := make([]frame.NodeID, 0, len(tx.neighbors))
		for _, nb := range tx.neighbors {
			ids = append(ids, nb.obs.id)
		}
		t.Fatalf("node 0 neighbor IDs = %v, want [1]", ids)
	}
	if len(recs[2].events) != 0 {
		t.Fatalf("node at 50 km observed events: %v", recs[2].events)
	}
}

// attachInterleaveTrial drives one channel model through an interleaved
// Attach/Transmit sequence with the deterministic (σ = 0) propagation
// model and checks both the power matrix / neighbor index and carrier
// bookkeeping are rebuilt correctly after each late Attach.
func attachInterleaveTrial(t *testing.T, channel ChannelModel) {
	t.Helper()
	cfg := deterministicConfig()
	cfg.Channel = channel
	var sched sim.Scheduler
	med := New(&sched, cfg, rng.New(1))
	recs := map[frame.NodeID]*recorder{}
	attach := func(id frame.NodeID, x float64) {
		recs[id] = &recorder{}
		med.Attach(id, phys.Point{X: x}, detRadio(), recs[id])
	}

	// Phase 1: two nodes in receive range; a transmission builds the
	// cache/index for this two-node topology.
	attach(0, 0)
	attach(1, 100)
	end1 := med.Transmit(0, testRTS(0, 1))
	sched.Run(end1 + sim.Microsecond)
	if got := len(recs[1].frames()); got != 1 {
		t.Fatalf("%v phase 1: node 1 decoded %d frames, want 1", channel, got)
	}

	// Phase 2: attach node 2 — with a lower ID gap filled later — in
	// receive range of node 0 and sense-only range of node 1, then
	// transmit again. The stale two-node cache would either panic
	// (index out of bounds) or silently not deliver to node 2.
	attach(2, 200)
	end2 := med.Transmit(0, testRTS(0, 2))
	sched.Run(end2 + sim.Microsecond)
	if got := len(recs[2].frames()); got != 1 {
		t.Fatalf("%v phase 2: late-attached node 2 decoded %d frames, want 1", channel, got)
	}
	if got := len(recs[1].frames()); got != 2 {
		t.Fatalf("%v phase 2: node 1 decoded %d frames total, want 2", channel, got)
	}

	// Phase 3: transmit from the late-attached node; earlier nodes must
	// see it (the rebuild must cover it as a transmitter, not just an
	// observer), including one attached after *its* first appearance.
	attach(3, 300) // sense-only from node 0 (300 m), receive range of 2
	end3 := med.Transmit(2, testRTS(2, 0))
	sched.Run(end3 + sim.Microsecond)
	if got := len(recs[0].frames()); got != 1 {
		t.Fatalf("%v phase 3: node 0 decoded %d frames, want 1", channel, got)
	}
	if got := len(recs[3].frames()); got != 1 {
		t.Fatalf("%v phase 3: node 3 decoded %d frames, want 1", channel, got)
	}
	// Node 1 at 100 m from node 2: also in range.
	if got := len(recs[1].frames()); got != 3 {
		t.Fatalf("%v phase 3: node 1 decoded %d frames total, want 3", channel, got)
	}

	// Duplicate IDs still panic after the caches are built.
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("%v: duplicate Attach did not panic", channel)
			}
		}()
		med.Attach(2, phys.Point{X: 400}, detRadio(), &recorder{})
	}()
}

// TestAttachTransmitInterleave is the regression test for lazy rebuilds:
// interleaving Attach and Transmit must refresh the neighbor index —
// covering late nodes as both observers and transmitters — and
// duplicate IDs must panic as always.
func TestAttachTransmitInterleave(t *testing.T) {
	t.Run(ChannelV2.String(), func(t *testing.T) { attachInterleaveTrial(t, ChannelV2) })
}

// corridorMedium attaches n paper radios at uniform positions in the
// experiment package's scaled corridor (150 m of width per node, 700 m
// tall), the geometry of the large sharded runs.
func corridorMedium(n int) *Medium {
	var sched sim.Scheduler
	med := New(&sched, v2Config(0), rng.New(1))
	pos := rng.New(1).Stream("positions")
	for i := 0; i < n; i++ {
		p := phys.Point{X: pos.Float64() * 150 * float64(n), Y: pos.Float64() * 700}
		med.Attach(frame.NodeID(i), p, phys.DefaultRadio(), &recorder{})
	}
	return med
}

// BenchmarkBuildIndex times one v2/v3 neighbor-index build — the
// medium's share of a world build — from empty neighbor lists. With the
// grid the 4000-node build costs about 10× the 400-node one.
func BenchmarkBuildIndex(b *testing.B) {
	for _, n := range []int{400, 4000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			med := corridorMedium(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, nd := range med.nodes {
					nd.neighbors = nil
				}
				med.buildIndex()
			}
		})
	}
}

// call is one listener callback in a shared, cross-node log.
type call struct {
	at   sim.Time
	node frame.NodeID
	kind string // "busy", "idle", "frame", "corrupt"
}

// callLog is a Listener and CorruptionListener that appends every
// callback of one node to a log shared by all nodes.
type callLog struct {
	id  frame.NodeID
	log *[]call
}

func (l callLog) CarrierBusy(now sim.Time) { *l.log = append(*l.log, call{now, l.id, "busy"}) }
func (l callLog) CarrierIdle(now sim.Time) { *l.log = append(*l.log, call{now, l.id, "idle"}) }
func (l callLog) FrameCorrupted(now sim.Time) {
	*l.log = append(*l.log, call{now, l.id, "corrupt"})
}
func (l callLog) FrameReceived(_ frame.Frame, now sim.Time) {
	*l.log = append(*l.log, call{now, l.id, "frame"})
}

// TestV2FanRunListenerOrder pins the callback order of v2 fan runs on a
// deterministic (σ = 0) line: nodes at 0, 100, 200, 400 and 700 m
// (decodable below 250 m, sensed below 550 m). Node 0 sends an RTS at
// 1 ms, and node 2 a DATA frame 50 µs later: both frames collide at
// node 1, node 2's arrival is self-blocked at node 0 (and node 0's at
// node 2), node 3 senses node 0 only and decodes node 2, and node 4
// only senses node 2. An isolated RTS from node 1 follows. At every
// end instant the observers go in ascending ID, each one's
// FrameReceived or FrameCorrupted before its CarrierIdle, and the
// transmitter's CarrierIdle comes last. Each Transmit adds exactly one
// queue entry, and EventsFired still counts one event per member.
func TestV2FanRunListenerOrder(t *testing.T) {
	var log []call
	sched, med, _ := setup(t, deterministicConfig(), nil)
	for i, x := range []float64{0, 100, 200, 400, 700} {
		med.Attach(frame.NodeID(i), phys.Point{X: x}, detRadio(), callLog{frame.NodeID(i), &log})
	}
	rts01, rts10 := testRTS(0, 1), testRTS(1, 0)
	data23 := frame.Frame{Type: frame.Data, Src: 2, Dst: 3, Seq: 1, PayloadBytes: 512}
	t1, t2, t3 := sim.Millisecond, sim.Millisecond+50*sim.Microsecond, 5*sim.Millisecond
	for _, tx := range []struct {
		at sim.Time
		f  frame.Frame
	}{{t1, rts01}, {t2, data23}, {t3, rts10}} {
		sched.AtArg(tx.at, func(arg any, _ sim.Time) {
			f := arg.(frame.Frame)
			before := sched.Pending()
			med.Transmit(f.Src, f)
			if got := sched.Pending() - before; got != 1 {
				t.Errorf("Transmit from node %d added %d queue entries, want 1", f.Src, got)
			}
		}, tx.f)
	}
	sched.Run(10 * sim.Millisecond)

	air := func(f frame.Frame) sim.Time { return f.Airtime(detRadio().BitRate) }
	endA, endB, endC := t1+air(rts01), t2+air(data23), t3+air(rts10)
	if endA >= endB {
		t.Fatalf("node 0's RTS ends at %v, not before node 2's DATA at %v", endA, endB)
	}
	want := []call{
		{t1, 0, "busy"}, {t1, 1, "busy"}, {t1, 2, "busy"}, {t1, 3, "busy"},
		{t2, 4, "busy"},
		// Node 0's run: node 1 loses the RTS to the collision; every
		// carrier, node 0's own included, stays busy with node 2's DATA.
		{endA, 1, "corrupt"},
		// Node 2's run: node 0 was transmitting when the DATA arrived
		// (self-blocked, no corruption callback), node 1 saw it collide.
		{endB, 0, "idle"}, {endB, 1, "corrupt"}, {endB, 1, "idle"},
		{endB, 3, "frame"}, {endB, 3, "idle"}, {endB, 4, "idle"}, {endB, 2, "idle"},
		{t3, 1, "busy"}, {t3, 0, "busy"}, {t3, 2, "busy"}, {t3, 3, "busy"},
		{endC, 0, "frame"}, {endC, 0, "idle"}, {endC, 2, "frame"}, {endC, 2, "idle"},
		{endC, 3, "idle"}, {endC, 1, "idle"},
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("callbacks:\n got %v\nwant %v", log, want)
	}
	// Three transmit events, then one per run member: node 0's run has
	// observers 1, 2, 3 and itself, node 2's 0, 1, 3, 4 and itself, and
	// node 1's 0, 2, 3 and itself.
	if got, want := sched.EventsFired(), uint64(3+4+5+4); got != want {
		t.Errorf("EventsFired = %d, want %d", got, want)
	}
}

// TestV2TransmitDoesNotAllocate: once the run and arrival pools are
// warm, a v2 transmit-and-complete cycle (one decoding and one sensing
// observer) allocates nothing.
func TestV2TransmitDoesNotAllocate(t *testing.T) {
	sched, med, _ := setup(t, deterministicConfig(), nil)
	for i, x := range []float64{0, 100, 400} {
		med.Attach(frame.NodeID(i), phys.Point{X: x}, detRadio(), nil)
	}
	f := testRTS(0, 1)
	cycle := func() { sched.Run(med.Transmit(0, f)) }
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("v2 transmit-and-complete cycle: %v allocations", n)
	}
	if tx, _, _ := med.Stats(); tx != 1001+1 {
		t.Errorf("%d transmissions, want 1002", tx)
	}
}
