// Package faults injects channel and node failures into a simulation
// run, deterministically: frame-error models (a fixed frame-error rate
// and a two-state Gilbert–Elliott burst-loss chain) that drop frames the
// collision model would have delivered, and a node-churn scheduler that
// crashes and restarts receivers mid-run, wiping their monitoring state.
//
// The paper's detection scheme reads the channel itself as its sensor —
// the receiver's idle-slot count B_act — so imperfect channels (lost
// CTS/ACKs, miscounted slots) feed straight into the deviation estimate.
// This package exists to quantify that fragility: how fast does the
// false-diagnosis rate of *correct* senders grow with loss, and does the
// detection pipeline re-synchronise after a receiver loses its state?
//
// Determinism: every frame-error decision is a counter-RNG draw
// (rng.Mix64 / rng.CounterUniform) keyed by (run base, transmitter,
// observer) and a per-link frame counter, so decisions are a pure
// function of the run seed and are independent of the order in which
// other links' frames complete. Churn schedules are precomputed at
// setup from a dedicated sequential stream. Everything is off by
// default, and a disabled Injector consumes no draws, so the goldens of
// fault-free runs are untouched.
package faults

import (
	"fmt"

	"dcfguard/internal/frame"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

// GE parameterises a two-state Gilbert–Elliott burst-loss chain. The
// link sits in a Good or a Bad state; before each frame the state makes
// one Markov transition, then the frame is lost with the state's
// frame-error rate. Mean residence in Bad is PGoodBad/(PGoodBad+PBadGood)
// of the time, so the long-run loss rate is
//
//	FER = πG·GoodFER + πB·BadFER,  πB = PGoodBad/(PGoodBad+PBadGood).
//
// The classic Gilbert model is GoodFER=0, BadFER=1; intermediate values
// give the "soft" variant.
type GE struct {
	// PGoodBad is the per-frame probability of a Good→Bad transition.
	PGoodBad float64
	// PBadGood is the per-frame probability of a Bad→Good transition.
	PBadGood float64
	// GoodFER and BadFER are the frame-error rates inside each state.
	GoodFER float64
	BadFER  float64
}

// Validate reports whether every chain parameter is a probability.
// Degenerate chains (both transition probabilities zero, or an absorbing
// state) are allowed: they are well-defined, just not bursty.
func (g GE) Validate() error {
	for _, p := range [...]struct {
		name string
		v    float64
	}{
		{"PGoodBad", g.PGoodBad},
		{"PBadGood", g.PBadGood},
		{"GoodFER", g.GoodFER},
		{"BadFER", g.BadFER},
	} {
		// Negated form also rejects NaN.
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("faults: GE %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	return nil
}

// MeanFER returns the chain's long-run frame-error rate. A chain that
// never transitions (PGoodBad+PBadGood == 0) stays in Good forever.
func (g GE) MeanFER() float64 {
	denom := g.PGoodBad + g.PBadGood
	if denom <= 0 {
		return g.GoodFER
	}
	piBad := g.PGoodBad / denom
	return (1-piBad)*g.GoodFER + piBad*g.BadFER
}

// GEForMeanFER returns the classic Gilbert chain (GoodFER=0, BadFER=1)
// whose long-run loss rate is fer, using the given Bad→Good recovery
// probability r (which sets the mean burst length 1/r). It panics unless
// fer ∈ [0, 1) and r ∈ (0, 1].
func GEForMeanFER(fer, r float64) GE {
	if !(fer >= 0 && fer < 1) || !(r > 0 && r <= 1) {
		panic(fmt.Sprintf("faults: GEForMeanFER(%v, %v)", fer, r))
	}
	// πB = p/(p+r) = fer  ⇒  p = fer·r/(1−fer).
	return GE{PGoodBad: fer * r / (1 - fer), PBadGood: r, BadFER: 1}
}

// Config selects the faults to inject into a run. The zero value
// disables everything.
type Config struct {
	// FER is the i.i.d. per-frame error rate applied to every frame
	// that survives collision resolution at an observer (0 disables).
	FER float64
	// Burst, when non-nil, replaces the fixed FER with a Gilbert–Elliott
	// chain evolved independently per (transmitter, observer) link.
	Burst *GE
	// ChurnInterval, when positive, crashes each monitored receiver
	// after exponentially distributed up-times with this mean. A crash
	// wipes the receiver's per-sender detection state (B_exp,
	// assignments, the diagnosis window) — the state a reboot loses.
	ChurnInterval sim.Time
	// ChurnDowntime is how long a crashed receiver stays down before
	// restarting (0 with churn enabled means restart at the next
	// instant).
	ChurnDowntime sim.Time
}

// ErrorsEnabled reports whether any frame-error model is active.
func (c Config) ErrorsEnabled() bool { return c.FER > 0 || c.Burst != nil }

// ChurnEnabled reports whether node churn is active.
func (c Config) ChurnEnabled() bool { return c.ChurnInterval > 0 }

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool { return c.ErrorsEnabled() || c.ChurnEnabled() }

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if !(c.FER >= 0 && c.FER <= 1) {
		return fmt.Errorf("faults: FER %v outside [0, 1]", c.FER)
	}
	if c.Burst != nil {
		if err := c.Burst.Validate(); err != nil {
			return err
		}
	}
	if c.ChurnInterval < 0 {
		return fmt.Errorf("faults: negative churn interval %v", c.ChurnInterval)
	}
	if c.ChurnDowntime < 0 {
		return fmt.Errorf("faults: negative churn downtime %v", c.ChurnDowntime)
	}
	return nil
}

// Injector is the per-run frame-error engine. It implements the
// medium's FrameFaults hook: Drop is consulted once per frame that
// survived collision resolution at an observer, and decides whether the
// channel destroyed it anyway.
//
// Draws are counter-based: each (transmitter, observer) link owns a key
// derived from the run base, and a frame counter that advances once per
// consulted frame. The chain state of one link therefore never depends
// on traffic elsewhere, and a run's decisions are reproducible whatever
// the interleaving of completions across links.
type Injector struct {
	cfg   Config
	base  uint64
	links map[linkKey]*linkState

	drops uint64
}

type linkKey struct {
	tx, rx frame.NodeID
}

type linkState struct {
	key uint64
	ctr uint64
	bad bool
}

// NewInjector builds an injector for one run. base is the run's fault
// key, normally one Uint64 from a dedicated stream of the run's root
// RNG; cfg must validate.
func NewInjector(cfg Config, base uint64) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("faults: %v", err))
	}
	return &Injector{cfg: cfg, base: base, links: make(map[linkKey]*linkState)}
}

func (in *Injector) link(tx, rx frame.NodeID) *linkState {
	k := linkKey{tx, rx}
	st, ok := in.links[k]
	if !ok {
		st = &linkState{key: rng.Mix64(rng.Mix64(in.base, uint64(tx)), uint64(rx))}
		in.links[k] = st
	}
	return st
}

// Drop reports whether the channel destroys this frame on the tx→rx
// link. Each call consumes the link's next frame counter; callers must
// consult it exactly once per surviving frame, in event order.
func (in *Injector) Drop(tx, rx frame.NodeID) bool {
	st := in.link(tx, rx)
	var drop bool
	if ge := in.cfg.Burst; ge != nil {
		// One Markov step, then the loss draw for the new state. Counters
		// 2k and 2k+1 keep the two draws independent.
		trans := rng.CounterUniform(st.key, 2*st.ctr)
		if st.bad {
			if trans < ge.PBadGood {
				st.bad = false
			}
		} else if trans < ge.PGoodBad {
			st.bad = true
		}
		fer := ge.GoodFER
		if st.bad {
			fer = ge.BadFER
		}
		drop = rng.CounterUniform(st.key, 2*st.ctr+1) < fer
	} else {
		drop = rng.CounterUniform(st.key, st.ctr) < in.cfg.FER
	}
	st.ctr++
	if drop {
		in.drops++
	}
	return drop
}

// Drops returns the cumulative number of frames destroyed by the
// injector.
func (in *Injector) Drops() uint64 { return in.drops }

// Restartable is a component that can lose its volatile state and come
// back: the churn scheduler's target. core.Monitor implements it.
type Restartable interface {
	// Crash takes the component down at now, discarding volatile state.
	Crash(now sim.Time)
	// Restart brings the component back up at now, empty-handed.
	Restart(now sim.Time)
}

// Churn events use the scheduler's allocation-free AtArg form.
func churnCrashEvent(arg any, when sim.Time) { arg.(Restartable).Crash(when) }

func churnRestartEvent(arg any, when sim.Time) { arg.(Restartable).Restart(when) }

// ScheduleChurn precomputes and arms one target's crash/restart cycle on
// the scheduler: up-times are exponentially distributed with mean
// cfg.ChurnInterval (drawn from src at setup, so the schedule is fixed
// before the run starts), downtimes are the constant cfg.ChurnDowntime.
// Cycles beyond until are not scheduled. It returns the number of
// crashes armed.
func ScheduleChurn(sched *sim.Scheduler, src *rng.Source, cfg Config, target Restartable, until sim.Time) int {
	if !cfg.ChurnEnabled() {
		return 0
	}
	crashes := 0
	t := sim.Time(0)
	for {
		up := sim.Time(src.ExpFloat64() * float64(cfg.ChurnInterval))
		if up < sim.Time(1) {
			up = sim.Time(1) // never crash at the previous event's instant
		}
		t += up
		if t >= until {
			return crashes
		}
		restart := t + cfg.ChurnDowntime
		sched.AtArg(t, churnCrashEvent, target)
		if restart < until {
			sched.AtArg(restart, churnRestartEvent, target)
		}
		crashes++
		t = restart
	}
}
