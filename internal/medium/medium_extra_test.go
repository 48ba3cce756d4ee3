package medium

import (
	"testing"

	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

func TestThreeWayCollisionAllLost(t *testing.T) {
	sched, med, recs := setup(t, deterministicConfig(),
		[]phys.Point{{X: 0}, {X: 150}, {X: 300}, {X: 150, Y: 150}})
	med.Transmit(0, testRTS(0, 1))
	med.Transmit(2, testRTS(2, 1))
	med.Transmit(3, testRTS(3, 1))
	sched.Run(sim.Second)
	if n := len(recs[1].frames()); n != 0 {
		t.Fatalf("three-way collision delivered %d frames", n)
	}
	_, del, col := med.Stats()
	if del != 0 || col != 3 {
		t.Fatalf("stats = (del %d, col %d), want (0, 3)", del, col)
	}
}

func TestDeliveryTap(t *testing.T) {
	sched, med, _ := setup(t, deterministicConfig(), []phys.Point{{X: 0}, {X: 100}, {X: 200}})
	log := logFrames(med)
	f := testRTS(0, 1)
	med.Transmit(0, f)
	sched.Run(sim.Second)
	taps := log.delivered
	// The tap fires only for the addressee's copy, not the overhearing
	// node 2's.
	if len(taps) != 1 || taps[0] != f {
		t.Fatalf("delivery taps = %v, want exactly the addressee delivery", taps)
	}
}

func TestDeliveryTapSilentOnCollision(t *testing.T) {
	sched, med, _ := setup(t, deterministicConfig(),
		[]phys.Point{{X: 0}, {X: 150}, {X: 300}})
	log := logFrames(med)
	med.Transmit(0, testRTS(0, 1))
	med.Transmit(2, testRTS(2, 1))
	sched.Run(sim.Second)
	if taps := len(log.delivered); taps != 0 {
		t.Fatalf("delivery tap fired %d times on a collision", taps)
	}
}

func TestTransmittingQuery(t *testing.T) {
	sched, med, _ := setup(t, deterministicConfig(), []phys.Point{{X: 0}, {X: 100}})
	if med.Transmitting(0) {
		t.Fatal("transmitting before any frame")
	}
	end := med.Transmit(0, testRTS(0, 1))
	if !med.Transmitting(0) || med.Transmitting(1) {
		t.Fatal("Transmitting wrong during frame")
	}
	sched.Run(end)
	if med.Transmitting(0) {
		t.Fatal("still transmitting at frame end")
	}
}

func TestUnattachedNodeQueriesPanic(t *testing.T) {
	_, med, _ := setup(t, deterministicConfig(), []phys.Point{{X: 0}})
	for name, call := range map[string]func(){
		"Busy":         func() { med.Busy(9) },
		"Position":     func() { med.Position(9) },
		"Radio":        func() { med.Radio(9) },
		"Transmitting": func() { med.Transmitting(9) },
		"Transmit":     func() { med.Transmit(9, testRTS(9, 0)) },
	} {
		name, call := name, call
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on unattached node did not panic", name)
				}
			}()
			call()
		}()
	}
}

func TestInvalidModelPanics(t *testing.T) {
	var sched sim.Scheduler
	defer func() {
		if recover() == nil {
			t.Fatal("invalid model did not panic")
		}
	}()
	New(&sched, Config{Model: phys.Shadowing{}}, rng.New(1))
}

func TestInvalidRadioAttachPanics(t *testing.T) {
	var sched sim.Scheduler
	med := New(&sched, deterministicConfig(), rng.New(1))
	bad := detRadio()
	bad.BitRate = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid radio did not panic")
		}
	}()
	med.Attach(0, phys.Point{}, bad, nil)
}

func TestSequentialStressBookkeeping(t *testing.T) {
	// Hammer the medium with alternating transmissions and verify the
	// per-node arrival lists drain (no leaked arrivals ⇒ counters add up).
	var sched sim.Scheduler
	m := phys.DefaultShadowing()
	m.SigmaDB = 0
	med := New(&sched, Config{Model: m}, rng.New(1))
	recs := []*recorder{{}, {}}
	med.Attach(0, phys.Point{}, detRadio(), recs[0])
	med.Attach(1, phys.Point{X: 100}, detRadio(), recs[1])

	const rounds = 500
	f01 := testRTS(0, 1)
	f10 := testRTS(1, 0)
	gap := f01.Airtime(2_000_000) + 100*sim.Microsecond
	for i := 0; i < rounds; i++ {
		i := i
		at := sim.Time(i) * gap
		sched.At(at, func() {
			if i%2 == 0 {
				med.Transmit(0, f01)
			} else {
				med.Transmit(1, f10)
			}
		})
	}
	sched.Run(sim.Time(rounds+1) * gap)
	tx, del, col := med.Stats()
	if tx != rounds || del != rounds || col != 0 {
		t.Fatalf("stats = (%d, %d, %d), want (%d, %d, 0)", tx, del, col, rounds, rounds)
	}
	if got := len(recs[1].frames()) + len(recs[0].frames()); got != rounds {
		t.Fatalf("delivered %d, want %d", got, rounds)
	}
}
