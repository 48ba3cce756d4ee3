// Seeded violations for the hotalloc analyzer.
package hotalloc

import "dcfguard/internal/lint/testdata/src/sim"

type node struct {
	sched *sim.Scheduler
	nav   sim.Time
}

// A closure literal on the hot-path entry points allocates per call.
func (n *node) armTimeout(at sim.Time) {
	n.sched.At(at, func() { n.nav = at }) // want `closure literal passed to Scheduler\.At allocates per call`
}

func (n *node) armDelay(d sim.Time) {
	n.sched.After(d, func() { n.nav += d }) // want `closure literal passed to Scheduler\.After allocates per call`
}

// The trampoline form is the fix: package-level func plus an argument.
func fireTimeout(arg any, when sim.Time) { arg.(*node).nav = when }

func (n *node) armTimeoutFast(at sim.Time) {
	n.sched.AtArg(at, fireTimeout, n)
}

// Passing a named function (no capture) to At is allocation-free too.
func noop() {}

func (n *node) armNoop(at sim.Time) {
	n.sched.At(at, noop)
}

// A type without the trampolines is not a scheduler hot path: closures
// to it are legal.
func plain(p *sim.PlainTimer, at sim.Time) {
	p.At(at, func() {})
}

// Cold one-off setup may opt out with a justification.
func (n *node) armOnce(at sim.Time) {
	n.sched.At(at, func() { n.nav = 0 }) //detlint:allow hotalloc -- runs once at scenario setup, never per frame
}

// A closure in AtKeyedArg's fn slot allocates per call too — it is the
// sharded medium's per-arrival hot path.
func (n *node) armKeyed(at sim.Time) {
	n.sched.AtKeyedArg(at, 7, func(arg any, when sim.Time) { n.nav = when }, n) // want `closure literal passed to Scheduler\.AtKeyedArg allocates per call`
}

// The package-level trampoline form stays silent.
func (n *node) armKeyedFast(at sim.Time) {
	n.sched.AtKeyedArg(at, 7, fireTimeout, n)
}

// --- forwarding helpers ---

// armVia forwards fn into the scheduler callback slot, so a closure
// handed to it allocates exactly like one handed to At directly. The
// report lands here, at the forwarding site, once for every caller.
func armVia(s *sim.Scheduler, at sim.Time, fn func()) {
	s.At(at, fn) // want `parameter fn forwarded to Scheduler\.At: a closure passed by the callers allocates per call`
}

// armDeep only passes fn on to armVia, which is already flagged.
func armDeep(s *sim.Scheduler, at sim.Time, fn func()) {
	armVia(s, at, fn)
}

// The callers of a forwarder stay silent: the forwarder carries the report.
func (n *node) armIndirect(at sim.Time) {
	armVia(n.sched, at, func() { n.nav = at })
}

func (n *node) armIndirectDeep(at sim.Time) {
	armDeep(n.sched, at, func() { n.nav = at })
}

// A named func through the forwarder allocates nothing: stays silent.
func (n *node) armIndirectFast(at sim.Time) {
	armVia(n.sched, at, noop)
}

// A type without the trampolines is no scheduler, so forwarding into it
// stays silent too.
func plainVia(p *sim.PlainTimer, at sim.Time, fn func()) {
	p.At(at, fn)
}
