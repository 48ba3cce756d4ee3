package mac

import (
	"math"
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/medium"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

func TestNodeAccessors(t *testing.T) {
	fx := newFixture()
	n := fx.addNode(7, phys.Point{}, &fixedPolicy{initial: 0}, nil)
	if n.ID() != 7 {
		t.Fatalf("ID() = %d", n.ID())
	}
	if got := senderState(99).String(); got == "" {
		t.Fatal("unknown state must render")
	}
	for s := stateIdle; s <= stateWaitAck; s++ {
		if s.String() == "" || len(s.String()) > 20 {
			t.Fatalf("state %d renders %q", s, s.String())
		}
	}
}

func TestSetQueueSpaceCallback(t *testing.T) {
	fx := newFixture()
	n := fx.addNode(1, phys.Point{}, &fixedPolicy{initial: 0}, nil)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), nil)
	fired := 0
	n.SetQueueSpaceCallback(func(sim.Time) { fired++ })
	n.Enqueue(2, 512)
	fx.sched.Run(sim.Second)
	if fired != 1 {
		t.Fatalf("queue-space callback fired %d times", fired)
	}
}

func TestNewNodeValidation(t *testing.T) {
	fx := newFixture()
	bad := DefaultParams()
	bad.CWMin = 0
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid params did not panic")
			}
		}()
		NewNode(1, bad, fx.sched, fx.med, &fixedPolicy{}, nil, Callbacks{})
	}()
	defer func() {
		if recover() == nil {
			t.Error("nil policy did not panic")
		}
	}()
	NewNode(1, DefaultParams(), fx.sched, fx.med, nil, nil, Callbacks{})
}

func TestNegativePolicyBackoffClamped(t *testing.T) {
	// A (buggy or malicious) policy returning negative slots must be
	// clamped to zero, not crash the countdown arithmetic.
	fx := newFixture()
	n := fx.addNode(1, phys.Point{}, &fixedPolicy{initial: -5}, nil)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), nil)
	n.Enqueue(2, 512)
	fx.sched.Run(sim.Second)
	if done, _, _ := n.Counters(); done != 1 {
		t.Fatalf("negative-backoff packet not delivered (done=%d)", done)
	}
}

func TestStandardPolicyIgnoresAssignments(t *testing.T) {
	p := NewStandardPolicy(rng.New(1))
	p.OnAssigned(2, 1, 5, true) // must be a no-op
	if got := p.ReportAttempt(3); got != 3 {
		t.Fatalf("ReportAttempt = %d", got)
	}
	for i := 0; i < 100; i++ {
		if b := p.InitialBackoff(2, 31); b < 0 || b > 31 {
			t.Fatalf("InitialBackoff = %d", b)
		}
	}
}

func TestQueueContinuesAfterDrop(t *testing.T) {
	// The first packet's destination never responds (retry-limit drop);
	// the second packet goes to a live receiver and must still complete.
	fx := newFixture()
	sender := fx.addNode(1, phys.Point{}, &fixedPolicy{initial: 0, retries: map[int]int{}}, nil)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), &stubHook{respond: false})
	fx.addNode(3, phys.Point{X: -100}, NewStandardPolicy(rng.New(3)), nil)

	sender.Enqueue(2, 512) // doomed
	sender.Enqueue(3, 512) // must survive the head-of-line drop
	fx.sched.Run(sim.Second)

	if fx.drops[1] != 1 {
		t.Fatalf("drops = %d, want 1", fx.drops[1])
	}
	if len(fx.succ[1]) != 1 {
		t.Fatalf("successes = %v, want one (second packet)", fx.succ[1])
	}
	if s, d, _ := sender.Counters(); s != 1 || d != 1 {
		t.Fatalf("counters = (%d, %d), want (1, 1)", s, d)
	}
}

func TestNAVFromOverheardCTS(t *testing.T) {
	// Node C hears only the receiver's CTS (the sender A is out of C's
	// receive range in a line topology): the CTS duration alone must
	// hold C off the channel for the rest of the exchange.
	var sched sim.Scheduler
	m := phys.DefaultShadowing()
	m.SigmaDB = 0
	med := medium.New(&sched, medium.Config{Model: m}, rng.New(1))
	// Short-sense radio so A and C (480 m apart) are mutually invisible
	// but both reach R in the middle at 240 m.
	radio := phys.CalibratedRadio(m, 24.5, 250, 0.5, 300, 0.5, 2_000_000)

	log := newExchangeLog()
	succ := log.succ
	mkNode := func(id frame.NodeID, x float64, pol BackoffPolicy) *Node {
		n := log.watch(NewNode(id, DefaultParams(), &sched, med, pol, nil, Callbacks{}))
		med.Attach(id, phys.Point{X: x}, radio, n)
		return n
	}
	a := mkNode(1, -240, &fixedPolicy{initial: 0})
	mkNode(2, 0, NewStandardPolicy(rng.New(9))) // receiver R
	c := mkNode(3, 240, &fixedPolicy{initial: 0, retries: map[int]int{2: 3, 3: 9, 4: 2, 5: 11, 6: 4, 7: 8}})

	a.Enqueue(2, 512)
	// C gets its packet right after A's RTS ends, when the only thing
	// keeping C quiet during A's DATA is the NAV from R's CTS.
	fx := difs + rtsAir + 20*sim.Microsecond
	sched.At(fx, func() { c.Enqueue(2, 512) })
	sched.Run(sim.Second)

	if len(succ[1]) != 1 {
		t.Fatalf("a successes = %v (hidden-terminal collision means the CTS NAV failed)", succ[1])
	}
	if len(succ[3]) != 1 {
		t.Fatalf("c successes = %v", succ[3])
	}
	if succ[3][0] <= succ[1][0] {
		t.Fatal("c finished before a despite arriving later")
	}
}

func TestZeroBackoffStormResolvesViaRetries(t *testing.T) {
	// Eight senders all counting zero backoff transmit in the same slot
	// and collide; scripted distinct retry backoffs must untangle them.
	fx := newFixture()
	fx.addNode(9, phys.Point{}, NewStandardPolicy(rng.New(2)), nil)
	for i := 0; i < 4; i++ {
		id := frame.NodeID(i + 1)
		n := fx.addNode(id, phys.OnCircle(phys.Point{}, 150, i, 4),
			&fixedPolicy{initial: 0, retries: map[int]int{2: 3 * (i + 1), 3: 7 * (i + 1), 4: 5 * (i + 1)}}, nil)
		n.Enqueue(9, 512)
	}
	fx.sched.Run(sim.Second)

	for id := frame.NodeID(1); id <= 4; id++ {
		if len(fx.succ[id]) != 1 {
			t.Fatalf("sender %d successes = %v", id, fx.succ[id])
		}
		if fx.att[id][0] < 2 {
			t.Fatalf("sender %d attempts = %d, want ≥2 (initial storm must collide)", id, fx.att[id][0])
		}
	}
	_, _, col := fx.med.Stats()
	if col == 0 {
		t.Fatal("no collisions despite simultaneous zero backoffs")
	}
}

func TestCoherenceModeEndToEnd(t *testing.T) {
	// With a 320 µs coherence interval and σ = 1, sensing fragments
	// within frames, yet the exchange machinery must still deliver
	// traffic reliably between close (100 m) nodes.
	var sched sim.Scheduler
	med := medium.New(&sched, medium.Config{
		Model:             phys.DefaultShadowing(),
		CoherenceInterval: 320 * sim.Microsecond,
	}, rng.New(4))
	radio := phys.DefaultRadio()
	sender := NewNode(1, DefaultParams(), &sched, med, NewStandardPolicy(rng.New(5)), nil, Callbacks{})
	sender.SetQueueSpaceCallback(func(sim.Time) { sender.Enqueue(2, 512) })
	med.Attach(1, phys.Point{}, radio, sender)
	recv := NewNode(2, DefaultParams(), &sched, med, NewStandardPolicy(rng.New(6)), nil, Callbacks{})
	med.Attach(2, phys.Point{X: 100}, radio, recv)

	sender.Enqueue(2, 512)
	sched.Run(3 * sim.Second)
	if okCount, _, _ := sender.Counters(); okCount < 500 {
		t.Fatalf("coherence mode delivered %d packets in 3 s, want saturation", okCount)
	}
}

func TestBasicAccessExchangeSequence(t *testing.T) {
	fx := newFixture()
	params := DefaultParams()
	params.BasicAccess = true
	sender := NewNode(1, params, fx.sched, fx.med, &fixedPolicy{initial: 3}, nil, Callbacks{})
	fx.med.Attach(1, phys.Point{}, detTestRadio(), sender)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), nil)

	rec := recordFrames(fx.med)
	sender.Enqueue(2, 512)
	fx.sched.Run(sim.Second)
	var types []frame.Type
	var attempts []uint8
	for _, ev := range rec.Events() {
		types = append(types, ev.Frame.Type)
		if ev.Frame.Type == frame.Data {
			attempts = append(attempts, ev.Frame.Attempt)
		}
	}

	if succ, _, _ := sender.Counters(); succ != 1 {
		t.Fatalf("successes = %d", succ)
	}
	if len(types) != 2 || types[0] != frame.Data || types[1] != frame.Ack {
		t.Fatalf("frame sequence %v, want [DATA ACK]", types)
	}
	if len(attempts) != 1 || attempts[0] != 1 {
		t.Fatalf("DATA attempts = %v, want [1]", attempts)
	}
}

func TestBasicAccessTiming(t *testing.T) {
	fx := newFixture()
	params := DefaultParams()
	params.BasicAccess = true
	sender := fx.watch(NewNode(1, params, fx.sched, fx.med, &fixedPolicy{initial: 3}, nil, Callbacks{}))
	fx.med.Attach(1, phys.Point{}, detTestRadio(), sender)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), nil)

	sender.Enqueue(2, 512)
	fx.sched.Run(sim.Second)
	// DIFS + 3 slots + DATA + SIFS + ACK.
	want := difs + 3*slot + dataAir + sifs + ackAir
	if done := fx.succ[1]; len(done) != 1 || done[0] != want {
		t.Fatalf("basic exchange done at %v, want [%v]", done, want)
	}
}

func TestBasicAccessRetriesOnAckTimeout(t *testing.T) {
	// Receiver hook suppresses the ACK: the sender must retry with
	// incrementing attempt numbers on the DATA frames and finally drop.
	fx := newFixture()
	params := DefaultParams()
	params.BasicAccess = true
	sender := NewNode(1, params, fx.sched, fx.med, &fixedPolicy{initial: 0, retries: map[int]int{}}, nil, Callbacks{})
	fx.med.Attach(1, phys.Point{}, detTestRadio(), sender)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), &stubHook{respond: false, suppressAck: true})

	rec := recordFrames(fx.med)
	sender.Enqueue(2, 512)
	fx.sched.Run(sim.Second)
	var attempts []uint8
	for _, ev := range rec.Events() {
		if ev.Frame.Type == frame.Data {
			attempts = append(attempts, ev.Frame.Attempt)
		}
	}

	if _, drops, _ := sender.Counters(); drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
	if len(attempts) != DefaultParams().RetryLimit {
		t.Fatalf("DATA attempts = %v, want %d entries", attempts, DefaultParams().RetryLimit)
	}
	for i, a := range attempts {
		if int(a) != i+1 {
			t.Fatalf("attempt sequence %v", attempts)
		}
	}
}

func TestEIFSValue(t *testing.T) {
	// SIFS + ACK airtime at 2 Mbps (256 µs) + DIFS = 316 µs.
	if got := DefaultParams().EIFS(2_000_000); got != 316*sim.Microsecond {
		t.Fatalf("EIFS = %v, want 316µs", got)
	}
}

func TestEIFSDefersAfterCollision(t *testing.T) {
	// A and B collide at R; observer C decodes neither frame. With
	// UseEIFS, C's next countdown waits EIFS instead of DIFS — exactly
	// SIFS + ACK airtime longer.
	run := func(useEIFS bool) sim.Time {
		var sched sim.Scheduler
		m := phys.DefaultShadowing()
		m.SigmaDB = 0
		med := medium.New(&sched, medium.Config{Model: m}, rng.New(1))
		radio := detTestRadio()

		params := DefaultParams()
		mk := func(id frame.NodeID, pos phys.Point, pol BackoffPolicy, p Params) *Node {
			n := NewNode(id, p, &sched, med, pol, nil, Callbacks{})
			med.Attach(id, pos, radio, n)
			return n
		}
		a := mk(1, phys.Point{X: -100}, &fixedPolicy{initial: 2, retries: map[int]int{2: 100}}, params)
		b := mk(2, phys.Point{X: 100}, &fixedPolicy{initial: 2, retries: map[int]int{2: 200}}, params)
		mk(3, phys.Point{}, NewStandardPolicy(rng.New(2)), params)

		cParams := params
		cParams.UseEIFS = useEIFS
		c := mk(4, phys.Point{Y: 100}, &fixedPolicy{initial: 0}, cParams)

		rec := recordFrames(med)
		a.Enqueue(3, 512)
		b.Enqueue(3, 512)
		// C's packet arrives during the colliding RTSes.
		sched.At(difs+2*slot+50*sim.Microsecond, func() { c.Enqueue(3, 512) })
		sched.Run(sim.Second)
		cRTS := rtsStartsOf(rec, 4)
		if len(cRTS) == 0 {
			t.Fatal("c never transmitted")
		}
		return cRTS[0]
	}
	without := run(false)
	with := run(true)
	wantGap := sifs + ackAir // EIFS − DIFS
	if with-without != wantGap {
		t.Fatalf("EIFS deferral = %v, want %v (without=%v with=%v)",
			with-without, wantGap, without, with)
	}
}

// TestDelayReportedInCallback pins the delay of one uncontended packet
// in the sender's delay tally.
func TestDelayReportedInCallback(t *testing.T) {
	fx := newFixture()
	n := fx.addNode(1, phys.Point{}, &fixedPolicy{initial: 3}, nil)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), nil)

	fx.sched.At(sim.Millisecond, func() { n.Enqueue(2, 512) })
	fx.sched.Run(sim.Second)
	want := difs + 3*slot + exchange
	if w := n.Delay(); w.N() != 1 || w.Mean() != want.Seconds()*1000 {
		t.Fatalf("delay tally %d packets, mean %v ms; want 1 packet of %v (uncontended single exchange)",
			w.N(), w.Mean(), want)
	}
}

// TestDelayAccounting pins the sender's own delay tally (what run
// metrics read) against the per-packet delays its exchanges took.
func TestDelayAccounting(t *testing.T) {
	fx := newFixture()
	n := fx.addNode(1, phys.Point{}, &fixedPolicy{initial: 3}, nil)
	recv := fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), nil)

	fx.sched.At(sim.Millisecond, func() {
		n.Enqueue(2, 512)
		n.Enqueue(2, 512)
	})
	fx.sched.Run(sim.Second)
	var sumMs float64
	for _, done := range fx.succ[1] {
		sumMs += (done - sim.Millisecond).Seconds() * 1000
	}
	w := n.Delay()
	if w.N() != 2 {
		t.Fatalf("delay tally holds %d packets, want 2", w.N())
	}
	if want := sumMs / 2; math.Abs(w.Mean()-want) > 1e-9 {
		t.Fatalf("mean delay %v ms, want %v", w.Mean(), want)
	}
	if w := recv.Delay(); w.N() != 0 || w.Mean() != 0 {
		t.Fatalf("receiver-only node has delay tally %+v, want empty", w)
	}
}

func TestSecondPacketQueuedDuringFirst(t *testing.T) {
	// Back-to-back packets from one sender: the second contends right
	// after the first's ACK with a fresh backoff.
	fx := newFixture()
	pol := &fixedPolicy{initial: 2}
	sender := fx.addNode(1, phys.Point{}, pol, nil)
	fx.addNode(2, phys.Point{X: 100}, NewStandardPolicy(rng.New(2)), nil)

	sender.Enqueue(2, 512)
	sender.Enqueue(2, 512)
	fx.sched.Run(sim.Second)
	if len(fx.succ[1]) != 2 {
		t.Fatalf("successes = %v, want 2", fx.succ[1])
	}
	first := difs + 2*slot + exchange
	second := first + difs + 2*slot + exchange
	if fx.succ[1][0] != first || fx.succ[1][1] != second {
		t.Fatalf("success times = %v, want [%v %v]", fx.succ[1], first, second)
	}
}
