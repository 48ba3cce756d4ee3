package core

import (
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/mac"
	"dcfguard/internal/obs"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

const rtsAirtime = 276 * sim.Microsecond

// monitorHarness drives a Monitor directly with a synthetic timeline.
type monitorHarness struct {
	m        *Monitor
	mp       mac.Params
	now      sim.Time
	seq      uint32
	assigned int

	diagnosis *obs.CaptureSink
}

func newHarness(params Params) *monitorHarness {
	h := &monitorHarness{mp: mac.DefaultParams(), assigned: -1}
	h.m = NewMonitor(9, params, h.mp, rng.New(42), Events{})
	h.diagnosis = captureDiagnosis(h.m)
	h.now = sim.Millisecond
	return h
}

// captureDiagnosis subscribes a capture sink to m's CatDiagnosis and
// CatDeviation records: the per-packet "window" verdicts, the "proven"
// catches and the "deviation" flags.
func captureDiagnosis(m *Monitor) *obs.CaptureSink {
	c := obs.NewCaptureSink()
	bus := &obs.Bus{}
	bus.Subscribe(obs.CategorySet(0).Set(obs.CatDiagnosis).Set(obs.CatDeviation), c)
	m.Instrument(nil, bus)
	return c
}

// classified returns the verdict of every classified packet, in order.
func (h *monitorHarness) classified() []bool {
	var out []bool
	for _, r := range h.diagnosis.Records() {
		if r.Event == "window" {
			out = append(out, r.Aux == "diagnosed")
		}
	}
	return out
}

// diffs returns the B_exp − B_act of every classified packet, in order.
func (h *monitorHarness) diffs() []float64 {
	var out []float64
	for _, r := range h.diagnosis.Records() {
		if r.Event == "window" {
			out = append(out, r.A)
		}
	}
	return out
}

// deviations returns the deviation of every transmission equation (1)
// flagged, in order.
func (h *monitorHarness) deviations() []float64 {
	var out []float64
	for _, r := range h.diagnosis.Records() {
		if r.Event == "deviation" {
			out = append(out, r.A)
		}
	}
	return out
}

// penalties returns the penalty slots of every flagged transmission, in
// order.
func (h *monitorHarness) penalties() []int {
	var out []int
	for _, r := range h.diagnosis.Records() {
		if r.Event == "deviation" {
			out = append(out, int(r.B))
		}
	}
	return out
}

// proofs counts the attempt-verification catches.
func (h *monitorHarness) proofs() int {
	n := 0
	for _, r := range h.diagnosis.Records() {
		if r.Event == "proven" {
			n++
		}
	}
	return n
}

// verdicts counts each sender's classified packets in the captured
// records by verdict.
func verdicts(c *obs.CaptureSink) (mis, ok map[frame.NodeID]int) {
	mis, ok = make(map[frame.NodeID]int), make(map[frame.NodeID]int)
	for _, r := range c.Records() {
		switch {
		case r.Event != "window":
		case r.Aux == "diagnosed":
			mis[r.Peer]++
		default:
			ok[r.Peer]++
		}
	}
	return mis, ok
}

// exchange runs one full RTS→ACK exchange for sender 1, with the RTS
// arriving after the sender apparently counted `slots` backoff slots
// (measured in receiver idle time past DIFS). Returns the assignment
// advertised during the exchange.
func (h *monitorHarness) exchange(slots int) int {
	h.seq++
	return h.exchangeSeq(h.seq, 1, slots)
}

func (h *monitorHarness) exchangeSeq(seq uint32, attempt uint8, slots int) int {
	// Idle period since the mark: DIFS + slots·slot, then the RTS.
	start := h.now + h.mp.DIFS() + sim.Time(slots)*h.mp.SlotTime
	end := start + rtsAirtime
	// The RTS occupies the channel.
	h.m.OnCarrierBusy(start)
	rts := frame.Frame{Type: frame.RTS, Src: 1, Dst: 9, Seq: seq, Attempt: attempt}
	respond, assigned := h.m.OnRTS(rts, start, end)
	h.m.OnCarrierIdle(end)
	if !respond {
		h.now = end
		return -1
	}
	// CTS/DATA/ACK compressed: the busy details between RTS and ACK do
	// not affect the next window, which starts at the ACK end.
	ackEnd := end + 3*sim.Millisecond
	h.m.OnCarrierBusy(end + sim.Microsecond)
	h.m.OnCarrierIdle(ackEnd)
	h.m.OnData(frame.Frame{Type: frame.Data, Src: 1, Dst: 9, Seq: seq, PayloadBytes: 512},
		ackEnd-3*sim.Millisecond, ackEnd)
	h.m.OnAckSent(1, seq, ackEnd)
	h.assigned = assigned
	h.now = ackEnd
	return assigned
}

func TestMonitorFirstPacketUnchecked(t *testing.T) {
	h := newHarness(DefaultParams())
	assigned := h.exchange(3)
	if assigned < 0 || assigned > 31 {
		t.Fatalf("first assignment = %d, want [0, 31]", assigned)
	}
	if len(h.classified()) != 0 {
		t.Fatalf("first packet was classified (%v); no assignment existed yet", h.classified())
	}
	if p, d, _ := h.m.SenderStats(1); p != 0 || d != 0 {
		t.Fatalf("stats after first packet = (%d, %d), want (0, 0)", p, d)
	}
}

func TestMonitorHonestSenderNoDeviation(t *testing.T) {
	h := newHarness(DefaultParams())
	assigned := h.exchange(5) // first packet, establishes assignment
	for i := 0; i < 10; i++ {
		assigned = h.exchange(assigned) // count exactly what was assigned
	}
	if len(h.deviations()) != 0 {
		t.Fatalf("honest sender flagged %d deviations: %v", len(h.deviations()), h.deviations())
	}
	for i, mis := range h.classified() {
		if mis {
			t.Fatalf("honest packet %d classified as misbehaving", i)
		}
	}
	for i, d := range h.diffs() {
		if d != 0 {
			t.Fatalf("honest diff %d = %v, want 0 (B_act must equal B_exp)", i, d)
		}
	}
}

func TestMonitorDetectsDeviation(t *testing.T) {
	params := DefaultParams()
	h := newHarness(params)
	assigned := h.exchange(5)
	// Count only half the assignment.
	h.exchange(assigned / 2)
	if len(h.deviations()) != 1 {
		t.Fatalf("deviations = %v, want exactly one", h.deviations())
	}
	wantDev := params.Alpha*float64(assigned) - float64(assigned/2)
	if h.deviations()[0] != wantDev {
		t.Fatalf("deviation = %v, want %v", h.deviations()[0], wantDev)
	}
	wantPen := int(params.PenaltyFactor*wantDev + 0.5)
	if h.penalties()[0] != wantPen {
		t.Fatalf("penalty = %d, want %d", h.penalties()[0], wantPen)
	}
}

func TestMonitorPenaltyRaisesNextAssignment(t *testing.T) {
	h := newHarness(DefaultParams())
	assigned := h.exchange(5)
	next := h.exchange(0)       // maximal misbehavior for this packet
	wantMin := h.penalties()[0] // base ≥ 0, so assignment ≥ penalty
	if next < wantMin {
		t.Fatalf("assignment after deviation = %d, want ≥ penalty %d", next, wantMin)
	}
	_ = assigned
}

func TestMonitorAlphaToleratesSlightShortfall(t *testing.T) {
	params := DefaultParams() // α = 0.9
	h := newHarness(params)
	assigned := h.exchange(5)
	for assigned < 20 {
		assigned = h.exchange(assigned)
	}
	// Count 95% of the assignment: above α ⇒ no deviation.
	h.exchange(assigned * 95 / 100)
	if len(h.deviations()) != 0 {
		t.Fatalf("95%% compliance flagged as deviation (α=0.9): %v", h.deviations())
	}
}

func TestMonitorDiagnosisAfterPersistentMisbehavior(t *testing.T) {
	h := newHarness(DefaultParams())
	h.exchange(5)
	diagnosedAt := -1
	for i := 0; i < 15; i++ {
		h.exchange(0)
		if h.m.Diagnosed(1) {
			diagnosedAt = i
			break
		}
	}
	if diagnosedAt < 0 {
		t.Fatal("persistent 100% misbehavior never diagnosed")
	}
	if !h.classified()[len(h.classified())-1] {
		t.Fatal("last packet not classified as misbehaving despite diagnosis")
	}
}

func TestMonitorSlowSenderNotDiagnosed(t *testing.T) {
	h := newHarness(DefaultParams())
	assigned := h.exchange(5)
	for i := 0; i < 10; i++ {
		assigned = h.exchange(assigned + 10) // waits longer than required
	}
	if h.m.Diagnosed(1) {
		t.Fatal("over-waiting sender diagnosed as misbehaving")
	}
	for _, d := range h.diffs() {
		if d > 0 {
			t.Fatalf("over-waiting sender has positive diff %v", d)
		}
	}
}

func TestMonitorNegativeDiffsOffsetPositive(t *testing.T) {
	// Alternating slightly-early and clearly-late packets must keep the
	// windowed sum below THRESH.
	h := newHarness(DefaultParams())
	assigned := h.exchange(5)
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			assigned = h.exchange(assigned * 85 / 100) // small deviation
		} else {
			assigned = h.exchange(assigned + 15) // overshoot
		}
	}
	if h.m.Diagnosed(1) {
		t.Fatal("balanced sender diagnosed")
	}
}

func TestMonitorWindowBounded(t *testing.T) {
	params := DefaultParams()
	h := newHarness(params)
	h.exchange(5)
	for i := 0; i < 30; i++ {
		h.exchange(0)
	}
	r := h.m.senders[1]
	if len(r.window) != params.Window {
		t.Fatalf("window length %d, want %d", len(r.window), params.Window)
	}
	if p, _, _ := h.m.SenderStats(1); p != 30 {
		t.Fatalf("packet count %d, want 30", p)
	}
}

func TestMonitorBlockingMode(t *testing.T) {
	params := DefaultParams()
	params.BlockDiagnosed = true
	h := newHarness(params)
	h.exchange(5)
	blocked := false
	for i := 0; i < 20; i++ {
		if h.exchange(0) < 0 {
			blocked = true
			break
		}
	}
	if !blocked {
		t.Fatal("diagnosed sender never refused a CTS in blocking mode")
	}
}

func TestMonitorRetryChainEstimation(t *testing.T) {
	// A retry (attempt 3) of a *new* packet: B_exp must include the
	// full chain; counting exactly that chain yields diff 0.
	h := newHarness(DefaultParams())
	assigned := h.exchange(5)
	bexp := ExpectedBackoff(assigned, 1, 3, h.mp, true)
	h.seq++
	h.exchangeSeq(h.seq, 3, bexp)
	if len(h.deviations()) != 0 {
		t.Fatalf("honest retry chain flagged: %v", h.deviations())
	}
	if d := h.diffs()[len(h.diffs())-1]; d != 0 {
		t.Fatalf("retry diff = %v, want 0", d)
	}
}

func TestMonitorDuplicateRetryUsesChainOnly(t *testing.T) {
	// A retransmission of the sequence we already ACKed (our ACK was
	// lost): only the retry chain counts, keyed on the previous
	// assignment.
	h := newHarness(DefaultParams())
	first := h.exchange(5)      // seq 1: establishes current = first
	second := h.exchange(first) // seq 2 counted honestly; current = second
	_ = second
	// Sender missed ACK for seq 2 and retries it with attempt 2. It was
	// counting `first` for seq 2, so the chain is keyed on `first`.
	chain := ExpectedBackoff(first, 1, 2, h.mp, false)
	h.exchangeSeq(2, 2, chain)
	if len(h.deviations()) != 0 {
		t.Fatalf("honest duplicate retry flagged: %v (diffs %v)", h.deviations(), h.diffs())
	}
	if d := h.diffs()[len(h.diffs())-1]; d != 0 {
		t.Fatalf("duplicate retry diff = %v, want 0", d)
	}
}

func TestMonitorRetryReplacesWindowEntry(t *testing.T) {
	h := newHarness(DefaultParams())
	h.exchange(5)
	before, _, _ := h.m.SenderStats(1)
	// Two RTS for the same new sequence (attempts 1 then 2) must count
	// as one packet in the window.
	h.seq++
	start := h.now + h.mp.DIFS()
	rts := frame.Frame{Type: frame.RTS, Src: 1, Dst: 9, Seq: h.seq, Attempt: 1}
	h.m.OnRTS(rts, start, start+rtsAirtime)
	rts.Attempt = 2
	h.m.OnRTS(rts, start+sim.Millisecond, start+sim.Millisecond+rtsAirtime)
	after, _, _ := h.m.SenderStats(1)
	if after != before+1 {
		t.Fatalf("packet count went %d → %d, want +1 for retried packet", before, after)
	}
}

func TestMonitorAttemptVerificationCatchesLiar(t *testing.T) {
	params := DefaultParams()
	params.VerifyAttempts = true
	params.VerifyDropProb = 1 // drop every RTS once
	h := newHarness(params)

	// First RTS for seq 1: dropped for verification.
	start := h.now + h.mp.DIFS()
	rts := frame.Frame{Type: frame.RTS, Src: 1, Dst: 9, Seq: 1, Attempt: 1}
	if respond, _ := h.m.OnRTS(rts, start, start+rtsAirtime); respond {
		t.Fatal("verification drop did not happen with probability 1")
	}
	// The liar retries with the same attempt number.
	if respond, _ := h.m.OnRTS(rts, start+sim.Millisecond, start+sim.Millisecond+rtsAirtime); respond {
		// may respond or drop again; irrelevant here
		_ = respond
	}
	if h.proofs() != 1 {
		t.Fatalf("proofs = %d, want 1 (liar caught)", h.proofs())
	}
	if !h.m.Diagnosed(1) {
		t.Fatal("proven liar not reported as diagnosed")
	}
}

func TestMonitorAttemptVerificationPassesHonest(t *testing.T) {
	params := DefaultParams()
	params.VerifyAttempts = true
	params.VerifyDropProb = 1
	h := newHarness(params)

	start := h.now + h.mp.DIFS()
	rts := frame.Frame{Type: frame.RTS, Src: 1, Dst: 9, Seq: 1, Attempt: 1}
	h.m.OnRTS(rts, start, start+rtsAirtime) // dropped
	rts.Attempt = 2                         // honest increment
	h.m.OnRTS(rts, start+sim.Millisecond, start+sim.Millisecond+rtsAirtime)
	if h.proofs() != 0 {
		t.Fatalf("honest sender proven misbehaving (%d proofs)", h.proofs())
	}
}

func TestMonitorVerifiableAssignments(t *testing.T) {
	params := DefaultParams()
	params.AssignMode = AssignVerifiable
	h := newHarness(params)
	for i := 0; i < 5; i++ {
		seqBefore := h.seq + 1
		got := h.exchange(5)
		want := G(9, 1, seqBefore, h.mp.CWMin)
		// Honest compliance means no penalties, so assignment == G.
		if i > 0 {
			// After the first exchange the harness counts 5 slots,
			// which may deviate; only check the very first.
			break
		}
		if got != want {
			t.Fatalf("verifiable assignment = %d, want G = %d", got, want)
		}
	}
}

func TestMonitorGreedyAssignsZeroBase(t *testing.T) {
	params := DefaultParams()
	params.AssignMode = AssignGreedy
	h := newHarness(params)
	if got := h.exchange(5); got != 0 {
		t.Fatalf("greedy first assignment = %d, want 0", got)
	}
	// Honest sender counts 0 as told: no deviation, still 0 assigned.
	if got := h.exchange(0); got != 0 {
		t.Fatalf("greedy steady-state assignment = %d, want 0", got)
	}
	if len(h.deviations()) != 0 {
		t.Fatalf("compliant sender penalised by greedy receiver: %v", h.deviations())
	}
}

func TestMonitorPenaltyCap(t *testing.T) {
	params := DefaultParams()
	params.PenaltyCap = 50
	h := newHarness(params)
	h.exchange(5)
	for i := 0; i < 20; i++ {
		h.exchange(0)
	}
	for _, p := range h.penalties() {
		if p > 50 {
			t.Fatalf("penalty %d exceeds cap 50", p)
		}
	}
	// Assignment = base (≤31) + pending penalty (≤cap).
	if h.assigned > 31+50 {
		t.Fatalf("assignment %d exceeds base+cap", h.assigned)
	}
}

func TestMonitorWaivePenalties(t *testing.T) {
	params := DefaultParams()
	params.WaivePenalties = true
	h := newHarness(params)
	h.exchange(5)
	for i := 0; i < 8; i++ {
		h.exchange(0) // hard misbehavior, never penalised
	}
	if _, _, penalty := h.m.SenderStats(1); penalty != 0 {
		t.Fatalf("penalty total = %d with waived penalties", penalty)
	}
	// Deviations are still *observed* (the misbehaving receiver just
	// refuses to act on them).
	if _, dev, _ := h.m.SenderStats(1); dev == 0 {
		t.Fatal("deviations not recorded")
	}
}

func TestMonitorBasicAccessOpeningViaData(t *testing.T) {
	// In basic-access mode the DATA frame opens the exchange: the
	// monitor must run the full pipeline from OnData.
	h := newHarness(DefaultParams())
	mp := h.mp

	run := func(seq uint32, slots int) (bool, int) {
		start := h.now + mp.DIFS() + sim.Time(slots)*mp.SlotTime
		end := start + 2352*sim.Microsecond
		h.m.OnCarrierBusy(start)
		ack, assigned := h.m.OnData(frame.Frame{
			Type: frame.Data, Src: 1, Dst: 9, Seq: seq, Attempt: 1, PayloadBytes: 512,
		}, start, end)
		h.m.OnCarrierIdle(end)
		ackEnd := end + 266*sim.Microsecond
		h.m.OnAckSent(1, seq, ackEnd)
		h.now = ackEnd
		return ack, assigned
	}

	ack, first := run(1, 3)
	if !ack || first < 0 {
		t.Fatalf("first basic exchange: ack=%v assigned=%d", ack, first)
	}
	// Second packet counts nothing: deviation must fire.
	run(2, 0)
	if _, dev, _ := h.m.SenderStats(1); dev != 1 {
		t.Fatalf("deviations = %d, want 1 (DATA-opened exchange unchecked)", dev)
	}
}

func TestMonitorLegacyDataWithoutAttempt(t *testing.T) {
	// A DATA with no attempt field and no prior RTS decision (defensive
	// path) still gets an assignment and an ACK.
	h := newHarness(DefaultParams())
	ack, assigned := h.m.OnData(frame.Frame{
		Type: frame.Data, Src: 1, Dst: 9, Seq: 1, PayloadBytes: 512,
	}, sim.Millisecond, 2*sim.Millisecond)
	if !ack || assigned < 0 {
		t.Fatalf("legacy DATA: ack=%v assigned=%d", ack, assigned)
	}
}

func TestMonitorDistinctSendersIndependent(t *testing.T) {
	h := newHarness(DefaultParams())
	// Interleave: sender 1 honest, sender 2 misbehaving (via direct calls).
	m := h.m
	mp := h.mp
	now := sim.Millisecond
	assigned := map[frame.NodeID]int{1: -1, 2: -1}
	var seq uint32
	for i := 0; i < 12; i++ {
		for _, src := range []frame.NodeID{1, 2} {
			seq++
			slots := 0
			if a := assigned[src]; a >= 0 {
				if src == 1 {
					slots = a // honest
				} else {
					slots = 0 // full misbehavior
				}
			}
			start := now + mp.DIFS() + sim.Time(slots)*mp.SlotTime
			end := start + rtsAirtime
			m.OnCarrierBusy(start)
			_, a := m.OnRTS(frame.Frame{Type: frame.RTS, Src: src, Dst: 9, Seq: seq, Attempt: 1}, start, end)
			m.OnCarrierIdle(end)
			ackEnd := end + 3*sim.Millisecond
			m.OnCarrierBusy(end + sim.Microsecond)
			m.OnCarrierIdle(ackEnd)
			m.OnAckSent(src, seq, ackEnd)
			assigned[src] = a
			now = ackEnd
		}
	}
	if m.Diagnosed(1) {
		t.Fatal("honest sender 1 diagnosed")
	}
	if !m.Diagnosed(2) {
		t.Fatal("misbehaving sender 2 not diagnosed")
	}
	_, dev1, _ := m.SenderStats(1)
	if dev1 != 0 {
		t.Fatalf("honest sender accumulated %d deviations", dev1)
	}
}

func TestPushBoundedKeepsOldestToNewestInPlace(t *testing.T) {
	var xs []int
	for v := 1; v <= 3; v++ {
		xs = pushBounded(xs, v, 3)
	}
	backing := &xs[0]
	for v := 4; v <= 7; v++ {
		xs = pushBounded(xs, v, 3)
	}
	if len(xs) != 3 || xs[0] != 5 || xs[1] != 6 || xs[2] != 7 {
		t.Fatalf("window = %v, want [5 6 7]", xs)
	}
	if &xs[0] != backing {
		t.Fatal("a full window reallocated its backing array")
	}
}
