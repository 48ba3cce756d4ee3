package medium

import (
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/obs"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

// recorder is a Listener that logs every event with its timestamp.
type recorder struct {
	events []event
}

type event struct {
	kind string // "busy", "idle", "frame"
	at   sim.Time
	f    frame.Frame
}

func (r *recorder) CarrierBusy(now sim.Time) {
	r.events = append(r.events, event{"busy", now, frame.Frame{}})
}
func (r *recorder) CarrierIdle(now sim.Time) {
	r.events = append(r.events, event{"idle", now, frame.Frame{}})
}
func (r *recorder) FrameReceived(f frame.Frame, now sim.Time) {
	r.events = append(r.events, event{"frame", now, f})
}

func (r *recorder) frames() []frame.Frame {
	var fs []frame.Frame
	for _, e := range r.events {
		if e.kind == "frame" {
			fs = append(fs, e.f)
		}
	}
	return fs
}

func (r *recorder) count(kind string) int {
	n := 0
	for _, e := range r.events {
		if e.kind == kind {
			n++
		}
	}
	return n
}

// deterministicConfig returns a zero-shadowing model so tests have exact
// range behaviour: receive < 250 m, sense < 550 m.
func deterministicConfig() Config {
	m := phys.DefaultShadowing()
	m.SigmaDB = 0
	return Config{Model: m}
}

func detRadio() phys.Radio {
	m := phys.DefaultShadowing()
	m.SigmaDB = 0
	return phys.CalibratedRadio(m, 24.5, 250, 0.5, 550, 0.5, 2_000_000)
}

func testRTS(src, dst frame.NodeID) frame.Frame {
	return frame.Frame{Type: frame.RTS, Src: src, Dst: dst, Attempt: 1, AssignedBackoff: -1}
}

// frameLog is a test recorder on the channel trace: every "tx" record,
// and the frames delivered to their addressee, paired the way
// trace.Recorder pairs them — by transmitter and on-air end.
type frameLog struct {
	txs       []obs.Record
	delivered []frame.Frame
}

func (l *frameLog) Emit(r obs.Record) {
	switch r.Event {
	case "tx":
		l.txs = append(l.txs, r)
	case "deliver":
		for _, tx := range l.txs {
			f := TxFrame(tx)
			if f.Src == r.Peer && tx.Time+sim.Time(tx.A) == sim.Time(r.A) && f.Dst == r.Node {
				l.delivered = append(l.delivered, f)
			}
		}
	}
}

// logFrames subscribes a frameLog to med's channel trace.
func logFrames(med *Medium) *frameLog {
	l := &frameLog{}
	bus := &obs.Bus{}
	bus.Subscribe(obs.CategorySet(0).Set(obs.CatChannel), l)
	med.Instrument(nil, bus)
	return l
}

func setup(t *testing.T, cfg Config, positions []phys.Point) (*sim.Scheduler, *Medium, []*recorder) {
	t.Helper()
	var sched sim.Scheduler
	med := New(&sched, cfg, rng.New(1))
	recs := make([]*recorder, len(positions))
	for i, pos := range positions {
		recs[i] = &recorder{}
		med.Attach(frame.NodeID(i), pos, detRadio(), recs[i])
	}
	return &sched, med, recs
}

func TestDeliveryInRange(t *testing.T) {
	sched, med, recs := setup(t, deterministicConfig(), []phys.Point{{X: 0}, {X: 100}})
	f := testRTS(0, 1)
	end := med.Transmit(0, f)
	if want := f.Airtime(2_000_000); end != want {
		t.Fatalf("Transmit returned end %v, want %v", end, want)
	}
	sched.Run(sim.Second)
	got := recs[1].frames()
	if len(got) != 1 || got[0] != f {
		t.Fatalf("receiver frames = %v, want [%v]", got, f)
	}
	tx, del, col := med.Stats()
	if tx != 1 || del != 1 || col != 0 {
		t.Fatalf("stats = (%d, %d, %d), want (1, 1, 0)", tx, del, col)
	}
}

func TestNoDeliveryOutOfRange(t *testing.T) {
	// 300 m > 250 m receive range (deterministic model), but < 550 m
	// sense range: the frame is sensed, not decoded.
	sched, med, recs := setup(t, deterministicConfig(), []phys.Point{{X: 0}, {X: 300}})
	med.Transmit(0, testRTS(0, 1))
	sched.Run(sim.Second)
	if n := len(recs[1].frames()); n != 0 {
		t.Fatalf("out-of-range node decoded %d frames", n)
	}
	if recs[1].count("busy") != 1 || recs[1].count("idle") != 1 {
		t.Fatalf("sense-only node events = %v, want one busy and one idle", recs[1].events)
	}
}

func TestNoSenseBeyondCsRange(t *testing.T) {
	sched, med, recs := setup(t, deterministicConfig(), []phys.Point{{X: 0}, {X: 600}})
	med.Transmit(0, testRTS(0, 1))
	sched.Run(sim.Second)
	if len(recs[1].events) != 0 {
		t.Fatalf("node at 600 m observed events: %v", recs[1].events)
	}
}

func TestTransmitterSelfBusy(t *testing.T) {
	sched, med, recs := setup(t, deterministicConfig(), []phys.Point{{X: 0}, {X: 100}})
	f := testRTS(0, 1)
	end := med.Transmit(0, f)
	sched.Run(sim.Second)
	ev := recs[0].events
	if len(ev) != 2 || ev[0].kind != "busy" || ev[1].kind != "idle" {
		t.Fatalf("transmitter events = %v, want [busy idle]", ev)
	}
	if ev[0].at != 0 || ev[1].at != end {
		t.Fatalf("transmitter busy window [%v, %v], want [0, %v]", ev[0].at, ev[1].at, end)
	}
}

func TestCollisionBothLost(t *testing.T) {
	// Senders 0 and 2 both in range of node 1; simultaneous frames collide.
	sched, med, recs := setup(t, deterministicConfig(),
		[]phys.Point{{X: 0}, {X: 150}, {X: 300}})
	med.Transmit(0, testRTS(0, 1))
	med.Transmit(2, testRTS(2, 1))
	sched.Run(sim.Second)
	if n := len(recs[1].frames()); n != 0 {
		t.Fatalf("collided frames delivered: %d", n)
	}
	_, del, col := med.Stats()
	if del != 0 {
		t.Fatalf("deliveries = %d, want 0", del)
	}
	if col != 2 {
		t.Fatalf("collisions = %d, want 2", col)
	}
}

func TestPartialOverlapCollides(t *testing.T) {
	sched, med, recs := setup(t, deterministicConfig(),
		[]phys.Point{{X: 0}, {X: 150}, {X: 300}})
	med.Transmit(0, frame.Frame{Type: frame.Data, Src: 0, Dst: 1, PayloadBytes: 512})
	// Second frame starts midway through the first.
	sched.At(sim.Millisecond, func() { med.Transmit(2, testRTS(2, 1)) })
	sched.Run(sim.Second)
	if n := len(recs[1].frames()); n != 0 {
		t.Fatalf("overlapping frames delivered: %d", n)
	}
}

func TestNonOverlappingBothDelivered(t *testing.T) {
	sched, med, recs := setup(t, deterministicConfig(),
		[]phys.Point{{X: 0}, {X: 150}, {X: 300}})
	f1 := testRTS(0, 1)
	end := med.Transmit(0, f1)
	f2 := testRTS(2, 1)
	sched.At(end, func() { med.Transmit(2, f2) })
	sched.Run(sim.Second)
	got := recs[1].frames()
	if len(got) != 2 {
		t.Fatalf("delivered %d frames, want 2 (back-to-back must not collide)", len(got))
	}
}

func TestHiddenTerminal(t *testing.T) {
	// With the paper's 250 m / 550 m ranges two senders that can both
	// reach a common receiver always sense each other (≤ 500 m apart),
	// so build a radio with a short 300 m sense range instead: senders
	// at ±240 m reach the receiver but cannot hear each other.
	var sched sim.Scheduler
	med := New(&sched, deterministicConfig(), rng.New(1))
	m := phys.DefaultShadowing()
	m.SigmaDB = 0
	radio := phys.CalibratedRadio(m, 24.5, 250, 0.5, 300, 0.5, 2_000_000)
	recs := make([]*recorder, 3)
	for i, pos := range []phys.Point{{X: -240}, {X: 0}, {X: 240}} {
		recs[i] = &recorder{}
		med.Attach(frame.NodeID(i), pos, radio, recs[i])
	}
	med.Transmit(0, testRTS(0, 1))
	if len(recs[2].events) != 0 {
		t.Fatal("hidden sender sensed the first transmission")
	}
	sched.At(50*sim.Microsecond, func() { med.Transmit(2, testRTS(2, 1)) })
	sched.Run(sim.Second)
	if n := len(recs[1].frames()); n != 0 {
		t.Fatalf("hidden-terminal collision delivered %d frames", n)
	}
}

func TestCaptureStrongerFrameSurvives(t *testing.T) {
	var sched sim.Scheduler
	cfg := deterministicConfig()
	med := New(&sched, cfg, rng.New(1))
	radio := detRadio()
	radio.CaptureDB = 10
	recs := make([]*recorder, 3)
	// Node 0 at 30 m from receiver 1 (strong); node 2 at 200 m (weak):
	// power gap = 20·log10(200/30) ≈ 16.5 dB > 10 dB capture margin.
	for i, pos := range []phys.Point{{X: -30}, {X: 0}, {X: 200}} {
		recs[i] = &recorder{}
		med.Attach(frame.NodeID(i), pos, radio, recs[i])
	}
	strong := testRTS(0, 1)
	weak := testRTS(2, 1)
	med.Transmit(0, strong)
	med.Transmit(2, weak)
	sched.Run(sim.Second)
	got := recs[1].frames()
	if len(got) != 1 || got[0] != strong {
		t.Fatalf("capture delivered %v, want only the strong frame", got)
	}
}

func TestHalfDuplexTransmitterMissesArrival(t *testing.T) {
	sched, med, recs := setup(t, deterministicConfig(),
		[]phys.Point{{X: 0}, {X: 100}})
	// Node 1 starts a long DATA; node 0 sends an RTS to node 1 while
	// node 1 is still transmitting.
	med.Transmit(1, frame.Frame{Type: frame.Data, Src: 1, Dst: 0, PayloadBytes: 512})
	sched.At(100*sim.Microsecond, func() { med.Transmit(0, testRTS(0, 1)) })
	sched.Run(sim.Second)
	if n := len(recs[1].frames()); n != 0 {
		t.Fatalf("half-duplex node decoded %d frames while transmitting", n)
	}
	// Node 0 still receives node 1's DATA (it finished its own RTS first?
	// No — node 0 was receiving DATA when it transmitted, so it loses it).
	if n := len(recs[0].frames()); n != 0 {
		t.Fatalf("node 0 decoded %d frames despite transmitting during arrival", n)
	}
}

func TestDeliveryBeforeIdleAtSameInstant(t *testing.T) {
	sched, med, recs := setup(t, deterministicConfig(), []phys.Point{{X: 0}, {X: 100}})
	med.Transmit(0, testRTS(0, 1))
	sched.Run(sim.Second)
	ev := recs[1].events
	if len(ev) != 3 || ev[0].kind != "busy" || ev[1].kind != "frame" || ev[2].kind != "idle" {
		t.Fatalf("receiver event order = %v, want [busy frame idle]", ev)
	}
	if ev[1].at != ev[2].at {
		t.Fatalf("frame at %v and idle at %v should coincide", ev[1].at, ev[2].at)
	}
}

func TestBusyRefcountOverlap(t *testing.T) {
	// Two overlapping transmissions within sense range: the observer
	// must see exactly one busy period covering both.
	sched, med, recs := setup(t, deterministicConfig(),
		[]phys.Point{{X: 0}, {X: 150}, {X: 300}})
	end0 := med.Transmit(0, frame.Frame{Type: frame.Data, Src: 0, Dst: 1, PayloadBytes: 512})
	var end2 sim.Time
	sched.At(sim.Millisecond, func() {
		end2 = med.Transmit(2, frame.Frame{Type: frame.Data, Src: 2, Dst: 1, PayloadBytes: 512})
	})
	sched.Run(sim.Second)
	if end2 <= end0 {
		t.Fatal("test setup: second transmission should outlast first")
	}
	if recs[1].count("busy") != 1 || recs[1].count("idle") != 1 {
		t.Fatalf("observer events = %v, want single merged busy period", recs[1].events)
	}
	var idleAt sim.Time
	for _, e := range recs[1].events {
		if e.kind == "idle" {
			idleAt = e.at
		}
	}
	if idleAt != end2 {
		t.Fatalf("idle at %v, want %v (end of later frame)", idleAt, end2)
	}
}

func TestBusyQuery(t *testing.T) {
	sched, med, _ := setup(t, deterministicConfig(), []phys.Point{{X: 0}, {X: 100}})
	if med.Busy(1) {
		t.Fatal("node busy before any transmission")
	}
	end := med.Transmit(0, testRTS(0, 1))
	if !med.Busy(1) || !med.Busy(0) {
		t.Fatal("nodes not busy during transmission")
	}
	sched.Run(end + sim.Microsecond)
	if med.Busy(1) || med.Busy(0) {
		t.Fatal("nodes busy after transmission ended")
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	_, med, _ := setup(t, deterministicConfig(), []phys.Point{{X: 0}, {X: 100}})
	med.Transmit(0, testRTS(0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("double transmit did not panic")
		}
	}()
	med.Transmit(0, testRTS(0, 1))
}

func TestInvalidFramePanics(t *testing.T) {
	_, med, _ := setup(t, deterministicConfig(), []phys.Point{{X: 0}, {X: 100}})
	defer func() {
		if recover() == nil {
			t.Fatal("invalid frame did not panic")
		}
	}()
	med.Transmit(0, frame.Frame{Type: frame.RTS, Src: 0, Dst: 1}) // attempt 0
}

func TestDuplicateAttachPanics(t *testing.T) {
	var sched sim.Scheduler
	med := New(&sched, deterministicConfig(), rng.New(1))
	med.Attach(1, phys.Point{}, detRadio(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	med.Attach(1, phys.Point{X: 5}, detRadio(), nil)
}

func TestTap(t *testing.T) {
	sched, med, _ := setup(t, deterministicConfig(), []phys.Point{{X: 0}, {X: 100}})
	log := logFrames(med)
	med.Transmit(0, testRTS(0, 1))
	sched.Run(sim.Second)
	for _, r := range log.txs {
		if src, start, end := r.Node, r.Time, r.Time+sim.Time(r.A); src != 0 || start != 0 || end <= start {
			t.Errorf("tap got src=%d window [%v, %v]", src, start, end)
		}
	}
	if taps := len(log.txs); taps != 1 {
		t.Fatalf("tap fired %d times, want 1", taps)
	}
}

func TestAccessors(t *testing.T) {
	_, med, _ := setup(t, deterministicConfig(), []phys.Point{{X: 0}, {X: 100}})
	if got := med.Position(1); got != (phys.Point{X: 100}) {
		t.Errorf("Position(1) = %v", got)
	}
	if got := med.Radio(0).BitRate; got != 2_000_000 {
		t.Errorf("Radio(0).BitRate = %d", got)
	}
	ids := med.NodeIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("NodeIDs() = %v", ids)
	}
}

func TestShadowingMakesMidRangeLossy(t *testing.T) {
	// With σ = 1 dB and the receiver exactly at 250 m, about half of
	// repeated transmissions are decodable.
	var sched sim.Scheduler
	cfg := Config{Model: phys.DefaultShadowing()}
	med := New(&sched, cfg, rng.New(7))
	rec := &recorder{}
	med.Attach(0, phys.Point{}, phys.DefaultRadio(), nil)
	med.Attach(1, phys.Point{X: 250}, phys.DefaultRadio(), rec)
	const n = 400
	f := testRTS(0, 1)
	air := f.Airtime(2_000_000)
	for i := 0; i < n; i++ {
		at := sim.Time(i) * (air + 100*sim.Microsecond)
		sched.At(at, func() { med.Transmit(0, f) })
	}
	sched.Run(sim.Time(n+1) * (air + 100*sim.Microsecond))
	got := len(rec.frames())
	if got < n/3 || got > 2*n/3 {
		t.Fatalf("delivered %d of %d at the 50%% boundary, want roughly half", got, n)
	}
}

func TestCoherenceModeSegmentsSensing(t *testing.T) {
	// Observer at 550 m with σ = 1: each coherence segment is an
	// independent coin flip, so a long frame produces several distinct
	// busy runs rather than one.
	var sched sim.Scheduler
	cfg := Config{Model: phys.DefaultShadowing(), CoherenceInterval: 100 * sim.Microsecond}
	med := New(&sched, cfg, rng.New(3))
	rec := &recorder{}
	med.Attach(0, phys.Point{}, phys.DefaultRadio(), nil)
	med.Attach(1, phys.Point{X: 550}, phys.DefaultRadio(), rec)
	med.Transmit(0, frame.Frame{Type: frame.Data, Src: 0, Dst: 1, PayloadBytes: 1500})
	sched.Run(sim.Second)
	busy, idle := rec.count("busy"), rec.count("idle")
	if busy != idle {
		t.Fatalf("unbalanced busy/idle: %d vs %d", busy, idle)
	}
	if busy < 2 {
		t.Fatalf("coherence mode produced %d busy runs, want fragmentation (≥2)", busy)
	}
}

func TestCoherenceModeCloseRangeSolid(t *testing.T) {
	// At 100 m every segment is far above threshold: exactly one busy run.
	var sched sim.Scheduler
	cfg := Config{Model: phys.DefaultShadowing(), CoherenceInterval: 100 * sim.Microsecond}
	med := New(&sched, cfg, rng.New(3))
	rec := &recorder{}
	med.Attach(0, phys.Point{}, phys.DefaultRadio(), nil)
	med.Attach(1, phys.Point{X: 100}, phys.DefaultRadio(), rec)
	f := frame.Frame{Type: frame.Data, Src: 0, Dst: 1, PayloadBytes: 1500}
	end := med.Transmit(0, f)
	sched.Run(sim.Second)
	if rec.count("busy") != 1 || rec.count("idle") != 1 {
		t.Fatalf("events = %v, want one solid busy run", rec.events)
	}
	last := rec.events[len(rec.events)-1]
	if last.kind != "idle" || last.at != end {
		t.Fatalf("busy run ends at %v, want %v", last.at, end)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []event {
		var sched sim.Scheduler
		med := New(&sched, Config{Model: phys.DefaultShadowing()}, rng.New(42))
		rec := &recorder{}
		med.Attach(0, phys.Point{}, phys.DefaultRadio(), nil)
		med.Attach(1, phys.Point{X: 240}, phys.DefaultRadio(), rec)
		med.Attach(2, phys.Point{X: 480}, phys.DefaultRadio(), nil)
		for i := 0; i < 50; i++ {
			at := sim.Time(i) * 3 * sim.Millisecond
			sched.At(at, func() { med.Transmit(0, testRTS(0, 1)) })
		}
		sched.Run(sim.Second)
		return rec.events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay produced %d events vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}
