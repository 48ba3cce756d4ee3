package mac

import (
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/medium"
	"dcfguard/internal/obs"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
	"dcfguard/internal/trace"
)

// Airtimes at 2 Mbps for exact-timing assertions.
const (
	rtsAir  = 276 * sim.Microsecond  // 21 B
	ctsAir  = 256 * sim.Microsecond  // 16 B
	ackAir  = 256 * sim.Microsecond  // 16 B
	dataAir = 2352 * sim.Microsecond // 540 B (512 payload)

	slot = 20 * sim.Microsecond
	sifs = 10 * sim.Microsecond
	difs = 50 * sim.Microsecond

	// Full exchange duration measured from RTS start.
	exchange = rtsAir + sifs + ctsAir + sifs + dataAir + sifs + ackAir
)

// fixedPolicy returns scripted backoffs and records what the MAC asks for.
type fixedPolicy struct {
	initial     int
	retries     map[int]int // attempt -> slots
	retryCWs    []int
	assignments []int
	finals      []bool
}

func (p *fixedPolicy) InitialBackoff(frame.NodeID, int) int { return p.initial }

func (p *fixedPolicy) RetryBackoff(_ frame.NodeID, attempt, cw int) int {
	p.retryCWs = append(p.retryCWs, cw)
	if p.retries == nil {
		return 0
	}
	return p.retries[attempt]
}

func (p *fixedPolicy) OnAssigned(_ frame.NodeID, _ uint32, backoff int, final bool) {
	p.assignments = append(p.assignments, backoff)
	p.finals = append(p.finals, final)
}

func (p *fixedPolicy) ReportAttempt(actual int) int { return actual }

// stubHook scripts receiver behaviour: respond controls the CTS,
// suppressAck the ACK.
type stubHook struct {
	respond     bool
	suppressAck bool
	assign      int
	rts         []frame.Frame
	rtsStart    []sim.Time
	data        []frame.Frame
	acks        []sim.Time
}

func (h *stubHook) OnRTS(rts frame.Frame, start, _ sim.Time) (bool, int) {
	h.rts = append(h.rts, rts)
	h.rtsStart = append(h.rtsStart, start)
	return h.respond, h.assign
}
func (h *stubHook) OnData(data frame.Frame, _, _ sim.Time) (bool, int) {
	h.data = append(h.data, data)
	return !h.suppressAck, h.assign
}
func (h *stubHook) OnAckSent(_ frame.NodeID, _ uint32, end sim.Time) { h.acks = append(h.acks, end) }
func (h *stubHook) OnCarrierBusy(sim.Time)                           {}
func (h *stubHook) OnCarrierIdle(sim.Time)                           {}

type fixture struct {
	sched *sim.Scheduler
	med   *medium.Medium
	nodes map[frame.NodeID]*Node
	succ  map[frame.NodeID][]sim.Time // OnSendSuccess times per node
	att   map[frame.NodeID][]int      // attempts per success
	drops map[frame.NodeID]int
}

// recordFrames subscribes an uncapped frame timeline to med's channel
// trace.
func recordFrames(med *medium.Medium) *trace.Recorder {
	rec := trace.New(0)
	bus := &obs.Bus{}
	bus.Subscribe(obs.CategorySet(0).Set(obs.CatChannel), rec)
	med.Instrument(nil, bus)
	return rec
}

// rtsStartsOf returns the start of every RTS src transmitted.
func rtsStartsOf(rec *trace.Recorder, src frame.NodeID) []sim.Time {
	var starts []sim.Time
	for _, ev := range rec.Events() {
		if ev.Frame.Type == frame.RTS && ev.Src == src {
			starts = append(starts, ev.Start)
		}
	}
	return starts
}

func newFixture() *fixture {
	var sched sim.Scheduler
	m := phys.DefaultShadowing()
	m.SigmaDB = 0
	return &fixture{
		sched: &sched,
		med:   medium.New(&sched, medium.Config{Model: m}, rng.New(1)),
		nodes: make(map[frame.NodeID]*Node),
		succ:  make(map[frame.NodeID][]sim.Time),
		att:   make(map[frame.NodeID][]int),
		drops: make(map[frame.NodeID]int),
	}
}

func detTestRadio() phys.Radio {
	m := phys.DefaultShadowing()
	m.SigmaDB = 0
	return phys.CalibratedRadio(m, 24.5, 250, 0.5, 550, 0.5, 2_000_000)
}

func (fx *fixture) addNode(id frame.NodeID, pos phys.Point, policy BackoffPolicy, hook ReceiverHook) *Node {
	cb := Callbacks{
		OnSendSuccess: func(_ frame.NodeID, _ uint32, _, attempts int, _, now sim.Time) {
			fx.succ[id] = append(fx.succ[id], now)
			fx.att[id] = append(fx.att[id], attempts)
		},
		OnSendDrop: func(frame.NodeID, uint32, sim.Time) { fx.drops[id]++ },
	}
	n := NewNode(id, DefaultParams(), fx.sched, fx.med, policy, hook, cb)
	fx.med.Attach(id, pos, detTestRadio(), n)
	fx.nodes[id] = n
	return n
}

func TestParamsCW(t *testing.T) {
	p := DefaultParams()
	want := []int{31, 63, 127, 255, 511, 1023, 1023, 1023}
	for i, w := range want {
		if got := p.CW(i + 1); got != w {
			t.Errorf("CW(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestParamsCWPanicsOnZeroAttempt(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CW(0) did not panic")
		}
	}()
	DefaultParams().CW(0)
}

func TestParamsDIFS(t *testing.T) {
	if got := DefaultParams().DIFS(); got != 50*sim.Microsecond {
		t.Fatalf("DIFS = %v, want 50µs", got)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.SlotTime = 0 },
		func(p *Params) { p.SIFS = 0 },
		func(p *Params) { p.CWMin = 0 },
		func(p *Params) { p.CWMax = 3 },
		func(p *Params) { p.RetryLimit = 0 },
		func(p *Params) { p.QueueCap = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestSingleExchangeTiming(t *testing.T) {
	fx := newFixture()
	pol := &fixedPolicy{initial: 3}
	sender := fx.addNode(1, phys.Point{}, pol, nil)
	receiver := fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), nil)

	if !sender.Enqueue(2, 512) {
		t.Fatal("enqueue failed")
	}
	fx.sched.Run(sim.Second)

	// RTS starts after DIFS + 3 slots; success at RTS start + exchange.
	wantStart := difs + 3*slot
	wantDone := wantStart + exchange
	if got := fx.succ[1]; len(got) != 1 || got[0] != wantDone {
		t.Fatalf("success times = %v, want [%v]", got, wantDone)
	}
	if got := fx.att[1]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("attempts = %v, want [1]", fx.att[1])
	}
	if s, d, _ := sender.Counters(); s != 1 || d != 0 {
		t.Fatalf("sender counters = (%d, %d)", s, d)
	}
	if _, _, del := receiver.Counters(); del != 1 {
		t.Fatalf("receiver delivered %d, want 1", del)
	}
}

func TestExchangeFrameSequence(t *testing.T) {
	fx := newFixture()
	sender := fx.addNode(1, phys.Point{}, &fixedPolicy{initial: 0}, nil)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), nil)

	rec := recordFrames(fx.med)
	sender.Enqueue(2, 512)
	fx.sched.Run(sim.Second)
	var types []frame.Type
	for _, ev := range rec.Events() {
		types = append(types, ev.Frame.Type)
	}
	want := []frame.Type{frame.RTS, frame.CTS, frame.Data, frame.Ack}
	if len(types) != len(want) {
		t.Fatalf("frame sequence %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("frame sequence %v, want %v", types, want)
		}
	}
}

func TestTwoSendersSerialize(t *testing.T) {
	fx := newFixture()
	a := fx.addNode(1, phys.Point{X: -100}, &fixedPolicy{initial: 2}, nil)
	b := fx.addNode(2, phys.Point{X: 100}, &fixedPolicy{initial: 9}, nil)
	fx.addNode(3, phys.Point{}, NewStandardPolicy(rng.New(2)), nil)

	a.Enqueue(3, 512)
	b.Enqueue(3, 512)
	fx.sched.Run(sim.Second)

	if len(fx.succ[1]) != 1 || len(fx.succ[2]) != 1 {
		t.Fatalf("successes: a=%v b=%v", fx.succ[1], fx.succ[2])
	}
	_, _, col := fx.med.Stats()
	if col != 0 {
		t.Fatalf("collisions = %d, want 0 (distinct backoffs serialize)", col)
	}
	// A (backoff 2) wins; B completes afterwards.
	if !(fx.succ[1][0] < fx.succ[2][0]) {
		t.Fatalf("a done %v, b done %v: wrong order", fx.succ[1][0], fx.succ[2][0])
	}
}

func TestEqualBackoffsCollideThenRecover(t *testing.T) {
	fx := newFixture()
	a := fx.addNode(1, phys.Point{X: -100}, &fixedPolicy{initial: 2, retries: map[int]int{2: 1}}, nil)
	b := fx.addNode(2, phys.Point{X: 100}, &fixedPolicy{initial: 2, retries: map[int]int{2: 6}}, nil)
	fx.addNode(3, phys.Point{}, NewStandardPolicy(rng.New(2)), nil)

	a.Enqueue(3, 512)
	b.Enqueue(3, 512)
	fx.sched.Run(sim.Second)

	if len(fx.succ[1]) != 1 || len(fx.succ[2]) != 1 {
		t.Fatalf("successes after collision: a=%v b=%v", fx.succ[1], fx.succ[2])
	}
	if fx.att[1][0] != 2 || fx.att[2][0] != 2 {
		t.Fatalf("attempts = (%d, %d), want (2, 2)", fx.att[1][0], fx.att[2][0])
	}
	_, _, col := fx.med.Stats()
	if col != 2 {
		t.Fatalf("collisions = %d, want 2 (one RTS pair)", col)
	}
}

func TestRetryCWDoubling(t *testing.T) {
	fx := newFixture()
	pol := &fixedPolicy{initial: 0, retries: map[int]int{}}
	sender := fx.addNode(1, phys.Point{}, pol, nil)
	// Receiver whose hook never responds: every attempt times out.
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), &stubHook{respond: false})

	sender.Enqueue(2, 512)
	fx.sched.Run(sim.Second)

	if fx.drops[1] != 1 {
		t.Fatalf("drops = %d, want 1", fx.drops[1])
	}
	want := []int{63, 127, 255, 511, 1023, 1023} // attempts 2..7
	if len(pol.retryCWs) != len(want) {
		t.Fatalf("retry CWs = %v, want %v", pol.retryCWs, want)
	}
	for i := range want {
		if pol.retryCWs[i] != want[i] {
			t.Fatalf("retry CWs = %v, want %v", pol.retryCWs, want)
		}
	}
	if s, d, _ := sender.Counters(); s != 0 || d != 1 {
		t.Fatalf("counters = (%d, %d), want (0, 1)", s, d)
	}
}

func TestHookSuppressesCTS(t *testing.T) {
	fx := newFixture()
	sender := fx.addNode(1, phys.Point{}, &fixedPolicy{initial: 0}, nil)
	hook := &stubHook{respond: false}
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), hook)

	rec := recordFrames(fx.med)
	sender.Enqueue(2, 512)
	fx.sched.Run(sim.Second)
	var ctsSeen bool
	for _, ev := range rec.Events() {
		if ev.Frame.Type == frame.CTS {
			ctsSeen = true
		}
	}
	if ctsSeen {
		t.Fatal("CTS transmitted despite hook suppression")
	}
	if len(hook.rts) != DefaultParams().RetryLimit {
		t.Fatalf("hook saw %d RTS, want %d (one per attempt)", len(hook.rts), DefaultParams().RetryLimit)
	}
	// Attempt numbers must increment 1..RetryLimit.
	for i, rts := range hook.rts {
		if int(rts.Attempt) != i+1 {
			t.Fatalf("RTS %d has attempt %d, want %d", i, rts.Attempt, i+1)
		}
	}
}

func TestAssignedBackoffPropagation(t *testing.T) {
	fx := newFixture()
	pol := &fixedPolicy{initial: 0}
	sender := fx.addNode(1, phys.Point{}, pol, nil)
	hook := &stubHook{respond: true, assign: 17}
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), hook)

	sender.Enqueue(2, 512)
	fx.sched.Run(sim.Second)

	// The CTS assignment (final=false) and the ACK assignment (final=true).
	if len(pol.assignments) != 2 || pol.assignments[0] != 17 || pol.assignments[1] != 17 {
		t.Fatalf("assignments = %v, want [17 17]", pol.assignments)
	}
	if !(!pol.finals[0] && pol.finals[1]) {
		t.Fatalf("finals = %v, want [false true]", pol.finals)
	}
	if len(hook.acks) != 1 {
		t.Fatalf("OnAckSent fired %d times, want 1", len(hook.acks))
	}
	if len(hook.rtsStart) != 1 || hook.rtsStart[0] != difs {
		t.Fatalf("RTS start seen by hook = %v, want %v", hook.rtsStart, difs)
	}
}

func TestNAVDefersThirdNode(t *testing.T) {
	fx := newFixture()
	a := fx.addNode(1, phys.Point{X: -100}, &fixedPolicy{initial: 0}, nil)
	fx.addNode(2, phys.Point{}, NewStandardPolicy(rng.New(2)), nil)
	c := fx.addNode(3, phys.Point{X: 100}, &fixedPolicy{initial: 0}, nil)

	a.Enqueue(2, 512)
	// C's packet arrives while A's RTS is on the air. Without the NAV
	// from the overheard RTS, C would fire during A's exchange and
	// collide at node 2.
	fx.sched.At(difs+100*sim.Microsecond, func() { c.Enqueue(2, 512) })
	fx.sched.Run(sim.Second)

	if len(fx.succ[1]) != 1 || len(fx.succ[3]) != 1 {
		t.Fatalf("successes: a=%v c=%v", fx.succ[1], fx.succ[3])
	}
	_, _, col := fx.med.Stats()
	if col != 0 {
		t.Fatalf("collisions = %d, want 0 (NAV must protect the exchange)", col)
	}
	aDone := fx.succ[1][0]
	if fx.succ[3][0] <= aDone {
		t.Fatalf("c finished %v before a %v", fx.succ[3][0], aDone)
	}
}

func TestNAVResetAfterDeadRTS(t *testing.T) {
	// A's RTS is never answered (hook drops it). C overhears the RTS and
	// sets a NAV for the whole reserve; the reset rule must release it
	// after a CTS turnaround so C does not wait ~3 ms.
	fx := newFixture()
	a := fx.addNode(1, phys.Point{X: -100}, &fixedPolicy{initial: 0, retries: map[int]int{
		2: 500, 3: 500, 4: 500, 5: 500, 6: 500, 7: 500}}, nil)
	fx.addNode(2, phys.Point{}, NewStandardPolicy(rng.New(2)), &stubHook{respond: false})
	c := fx.addNode(3, phys.Point{X: 100}, &fixedPolicy{initial: 0}, nil)
	fx.addNode(4, phys.Point{X: 50}, NewStandardPolicy(rng.New(3)), nil)

	a.Enqueue(2, 512)
	fx.sched.At(difs+100*sim.Microsecond, func() { c.Enqueue(4, 512) })
	fx.sched.Run(2 * sim.Second)

	if len(fx.succ[3]) != 1 {
		t.Fatalf("c successes = %v", fx.succ[3])
	}
	// Without NAV reset, C waits until aRTSend + reserve (≈ 3.2 ms).
	// With reset, C transmits right after the turnaround probe.
	rtsEnd := difs + rtsAir
	resetAt := rtsEnd + sifs + ctsAir + 2*slot
	cDone := fx.succ[3][0]
	wantLatest := resetAt + difs + exchange + 100*sim.Microsecond
	if cDone > wantLatest {
		t.Fatalf("c done at %v, want before %v (NAV reset failed)", cDone, wantLatest)
	}
}

func TestQueueCapacity(t *testing.T) {
	fx := newFixture()
	sender := fx.addNode(1, phys.Point{}, &fixedPolicy{initial: 0}, nil)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), nil)

	cap := DefaultParams().QueueCap
	for i := 0; i < cap; i++ {
		if !sender.Enqueue(2, 512) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if sender.Enqueue(2, 512) {
		t.Fatal("enqueue accepted beyond capacity")
	}
	if sender.QueueLen() != cap {
		t.Fatalf("queue length %d, want %d", sender.QueueLen(), cap)
	}
}

func TestQueueSpaceCallback(t *testing.T) {
	fx := newFixture()
	var spaces int
	cb := Callbacks{OnQueueSpace: func(sim.Time) { spaces++ }}
	n := NewNode(1, DefaultParams(), fx.sched, fx.med, &fixedPolicy{initial: 0}, nil, cb)
	fx.med.Attach(1, phys.Point{}, detTestRadio(), n)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), nil)

	n.Enqueue(2, 512)
	n.Enqueue(2, 512)
	fx.sched.Run(sim.Second)
	if spaces != 2 {
		t.Fatalf("OnQueueSpace fired %d times, want 2", spaces)
	}
}

func TestDuplicateDataFiltered(t *testing.T) {
	fx := newFixture()
	n := fx.addNode(1, phys.Point{}, NewStandardPolicy(rng.New(2)), nil)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(3)), nil)

	var delivered int
	n2 := NewNode(3, DefaultParams(), fx.sched, fx.med, NewStandardPolicy(rng.New(4)), nil,
		Callbacks{OnDeliver: func(frame.NodeID, uint32, int, sim.Time) { delivered++ }})
	fx.med.Attach(3, phys.Point{X: -100}, detTestRadio(), n2)

	data := frame.Frame{Type: frame.Data, Src: 1, Dst: 3, Seq: 5, PayloadBytes: 512}
	// Inject the same DATA twice (as after an ACK loss).
	n2.FrameReceived(data, fx.sched.Now())
	fx.sched.Run(10 * sim.Millisecond)
	n2.FrameReceived(data, fx.sched.Now())
	fx.sched.Run(20 * sim.Millisecond)

	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 (duplicate must be filtered)", delivered)
	}
	if _, _, del := n2.Counters(); del != 1 {
		t.Fatalf("counter delivered %d, want 1", del)
	}
	_ = n
}

func TestEnqueueToSelfPanics(t *testing.T) {
	fx := newFixture()
	n := fx.addNode(1, phys.Point{}, &fixedPolicy{initial: 0}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("self enqueue did not panic")
		}
	}()
	n.Enqueue(1, 512)
}

func TestBackoffFreezeDuringForeignTx(t *testing.T) {
	// A starts counting a 10-slot backoff; 2 slots in, B begins a long
	// exchange. A must freeze, wait out B (plus NAV), and resume with 8
	// slots, not restart at 10.
	fx := newFixture()
	a := fx.addNode(1, phys.Point{X: -100}, &fixedPolicy{initial: 10}, nil)
	b := fx.addNode(2, phys.Point{X: 100}, &fixedPolicy{initial: 0}, nil)
	fx.addNode(3, phys.Point{}, NewStandardPolicy(rng.New(2)), nil)

	rec := recordFrames(fx.med)

	b.Enqueue(3, 512)
	// A enqueues when B is already transmitting; A's full backoff counts
	// down only after B's exchange.
	fx.sched.At(difs+rtsAir/2, func() { a.Enqueue(3, 512) })
	fx.sched.Run(sim.Second)
	rtsStarts := rtsStartsOf(rec, 1)

	if len(fx.succ[1]) != 1 || len(fx.succ[2]) != 1 {
		t.Fatalf("successes: a=%v b=%v", fx.succ[1], fx.succ[2])
	}
	// B's exchange ends at difs + exchange. A then waits DIFS + 10 slots.
	bEnd := difs + exchange
	want := bEnd + difs + 10*slot
	if len(rtsStarts) != 1 || rtsStarts[0] != want {
		t.Fatalf("a's RTS at %v, want %v", rtsStarts, want)
	}
}

func TestCountdownPartialThenResume(t *testing.T) {
	// A counts 2 of 10 slots, freezes for B's exchange, then counts the
	// remaining 8 after a fresh DIFS.
	fx := newFixture()
	a := fx.addNode(1, phys.Point{X: -100}, &fixedPolicy{initial: 10}, nil)
	b := fx.addNode(2, phys.Point{X: 100}, &fixedPolicy{initial: 0}, nil)
	fx.addNode(3, phys.Point{}, NewStandardPolicy(rng.New(2)), nil)

	rec := recordFrames(fx.med)

	a.Enqueue(3, 512)
	// B enqueues so that its backoff-0 RTS starts exactly when A has
	// counted 2 full slots: B's DIFS must end at A's idleStart+DIFS+2slots.
	bStart := 2 * slot
	fx.sched.At(bStart, func() { b.Enqueue(3, 512) })
	fx.sched.Run(sim.Second)
	rtsStarts := rtsStartsOf(rec, 1)

	if len(rtsStarts) != 1 {
		t.Fatalf("a sent %d RTS", len(rtsStarts))
	}
	// B's RTS at bStart+difs; exchange ends at bStart+difs+exchange;
	// A resumes: DIFS + remaining 8 slots.
	want := bStart + difs + exchange + difs + 8*slot
	if rtsStarts[0] != want {
		t.Fatalf("a's RTS at %v, want %v (remaining slots not preserved)", rtsStarts[0], want)
	}
}

func TestBackloggedThroughputSanity(t *testing.T) {
	// One backlogged sender at 2 Mbps with 512 B payloads: the exchange
	// (DIFS + avg backoff + 3.16 ms) repeats; throughput must land near
	// the analytic rate.
	fx := newFixture()
	pol := NewStandardPolicy(rng.New(7))
	var sender *Node
	cb := Callbacks{}
	sender = NewNode(1, DefaultParams(), fx.sched, fx.med, pol, nil, cb)
	fx.med.Attach(1, phys.Point{}, detTestRadio(), sender)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(8)), nil)

	for i := 0; i < 10; i++ {
		sender.Enqueue(2, 512)
	}
	refill := func(sim.Time) { sender.Enqueue(2, 512) }
	sender.cb.OnQueueSpace = refill

	fx.sched.Run(10 * sim.Second)
	succ, _, _ := sender.Counters()
	// Analytic: DIFS + E[backoff]=15.5 slots (310 µs) + exchange 3170 µs
	// ≈ 3530 µs per packet ⇒ ~2832 packets in 10 s.
	if succ < 2500 || succ > 3100 {
		t.Fatalf("backlogged sender delivered %d packets in 10 s, want ≈2800", succ)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []sim.Time {
		var sched sim.Scheduler
		m := phys.DefaultShadowing()
		med := medium.New(&sched, medium.Config{Model: m}, rng.New(5))
		var times []sim.Time
		radio := phys.DefaultRadio()
		recv := NewNode(9, DefaultParams(), &sched, med, NewStandardPolicy(rng.New(6)), nil, Callbacks{})
		med.Attach(9, phys.Point{}, radio, recv)
		for i := frame.NodeID(0); i < 4; i++ {
			i := i
			n := NewNode(i, DefaultParams(), &sched, med,
				NewStandardPolicy(rng.New(uint64(10+i))), nil,
				Callbacks{OnSendSuccess: func(_ frame.NodeID, _ uint32, _, _ int, _, now sim.Time) {
					times = append(times, now)
				}})
			med.Attach(i, phys.OnCircle(phys.Point{}, 150, int(i), 4), radio, n)
			for k := 0; k < 40; k++ {
				n.Enqueue(9, 512)
			}
		}
		sched.Run(2 * sim.Second)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("replay lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMultiSenderContentionFairness(t *testing.T) {
	// Four identical backlogged senders to one receiver must split
	// throughput roughly evenly (sanity for the contention machinery).
	fx := newFixture()
	fx.addNode(9, phys.Point{}, NewStandardPolicy(rng.New(100)), nil)
	senders := make([]*Node, 4)
	for i := range senders {
		id := frame.NodeID(i + 1)
		n := fx.addNode(id, phys.OnCircle(phys.Point{}, 150, i, 4), NewStandardPolicy(rng.New(uint64(i+1))), nil)
		senders[i] = n
		for k := 0; k < 5; k++ {
			n.Enqueue(9, 512)
		}
		n.cb.OnQueueSpace = func(sim.Time) { n.Enqueue(9, 512) }
	}
	fx.sched.Run(10 * sim.Second)

	var total uint64
	counts := make([]uint64, 4)
	for i, n := range senders {
		counts[i], _, _ = n.Counters()
		total += counts[i]
	}
	if total < 2000 {
		t.Fatalf("total %d packets too low for 10 s saturated channel", total)
	}
	for i, c := range counts {
		share := float64(c) / float64(total)
		if share < 0.15 || share > 0.35 {
			t.Fatalf("sender %d share = %.2f (counts %v), want ≈0.25", i+1, share, counts)
		}
	}
}
