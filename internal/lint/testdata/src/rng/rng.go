// Package rng is a stub deterministic generator for analyzer tests: the
// rngstream analyzer recognises stream derivation by the receiver's
// package name.
package rng

type Source struct{ state uint64 }

func New(seed uint64) *Source { return &Source{state: seed} }

func (s *Source) Uint64() uint64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return s.state
}

func (s *Source) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

func (s *Source) Intn(n int) int { return int(s.Uint64() % uint64(n)) }

// Stream and StreamN mirror the real stream-derivation entry points the
// rngstream analyzer recognises by name on rng-package receivers.
func (s *Source) Stream(key uint64) *Source { return New(s.state ^ key) }

func (s *Source) StreamN(key, n uint64) *Source { return New(s.state ^ key ^ n) }
