// Package sim is a stub scheduler for analyzer tests: it mirrors the
// real internal/sim surface the analyzers duck-type against (At/After
// plus the AtArg/AfterArg trampolines), with no behaviour.
package sim

type Time int64

type EventRef struct{}

type Scheduler struct{}

func (s *Scheduler) Now() Time { return 0 }

func (s *Scheduler) At(when Time, fn func()) EventRef { return EventRef{} }

func (s *Scheduler) AtArg(when Time, fn func(arg any, when Time), arg any) EventRef {
	return EventRef{}
}

func (s *Scheduler) After(d Time, fn func()) EventRef { return EventRef{} }

func (s *Scheduler) AfterArg(d Time, fn func(arg any, when Time), arg any) EventRef {
	return EventRef{}
}

// PlainTimer has At but no AtArg trampoline: closures passed to it are
// legal, which pins that hotalloc only fires where a trampoline exists.
type PlainTimer struct{}

func (p *PlainTimer) At(when Time, fn func()) {}

// AtKeyedArg mirrors the keyed-scheduling entry point the shardmail
// and hotalloc corpora exercise.
func (s *Scheduler) AtKeyedArg(when Time, key uint64, fn func(arg any, when Time), arg any) EventRef {
	return EventRef{}
}
