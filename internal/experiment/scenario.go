// Package experiment assembles full simulation runs from the substrate
// packages and reproduces the paper's evaluation: scenario definitions,
// a deterministic single-run executor, parallel multi-seed aggregation,
// and one generator per paper figure (4 through 9) plus the ablations
// listed in DESIGN.md.
package experiment

import (
	"fmt"

	"dcfguard/internal/core"
	"dcfguard/internal/faults"
	"dcfguard/internal/frame"
	"dcfguard/internal/mac"
	"dcfguard/internal/medium"
	"dcfguard/internal/obs"
	"dcfguard/internal/phys"
	"dcfguard/internal/sim"
	"dcfguard/internal/topo"
)

// ChannelModel selects the medium's channel implementation.
type ChannelModel = medium.ChannelModel

const (
	// ChannelV2 is the counter-RNG + spatial-index channel (see
	// internal/medium/index.go), the zero value and the default.
	ChannelV2 = medium.ChannelV2
	// ChannelV3 is v2 plus a uniform per-link propagation delay and
	// keyed event ordering (see internal/medium/v3.go) — required for
	// (and designed around) sharded runs with Scenario.Shards > 1,
	// DESIGN.md §11.
	ChannelV3 = medium.ChannelV3
)

// Protocol selects the MAC variant under test.
type Protocol int

const (
	// Protocol80211 is unmodified IEEE 802.11 DCF (the baseline).
	Protocol80211 Protocol = iota + 1
	// ProtocolCorrect is the paper's scheme: receiver-assigned backoff
	// with detection, correction and diagnosis.
	ProtocolCorrect
)

// String returns the protocol's name as used in the paper's figures.
func (p Protocol) String() string {
	switch p {
	case Protocol80211:
		return "802.11"
	case ProtocolCorrect:
		return "CORRECT"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Strategy selects how misbehaving senders cheat.
type Strategy int

const (
	// StrategyPartial counts only (100−PM)% of each backoff — the
	// paper's parameterised misbehavior model.
	StrategyPartial Strategy = iota + 1
	// StrategyQuarterWindow draws from [0, CW/4] (the 802.11 example
	// misbehavior from the introduction).
	StrategyQuarterWindow
	// StrategyNoDoubling never doubles the contention window.
	StrategyNoDoubling
	// StrategyAttemptLiar counts (100−PM)% like Partial and also lies
	// in the RTS attempt field (countered by attempt verification).
	StrategyAttemptLiar
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyPartial:
		return "partial"
	case StrategyQuarterWindow:
		return "quarter-window"
	case StrategyNoDoubling:
		return "no-doubling"
	case StrategyAttemptLiar:
		return "attempt-liar"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Scenario describes one simulation configuration. Running it with a
// seed is a pure function: identical (Scenario, seed) pairs produce
// identical results.
type Scenario struct {
	// Name labels result tables.
	Name string
	// Topo builds the topology; it receives the run seed so random
	// topologies differ per run while star topologies ignore it.
	Topo func(seed uint64) *topo.Topology
	// Protocol selects baseline 802.11 or the paper's scheme.
	Protocol Protocol
	// Strategy and PM configure the misbehaving senders listed in the
	// topology. PM is the paper's "Percentage of Misbehavior".
	Strategy Strategy
	PM       int
	// Duration is the simulated time (the paper uses 50 s).
	Duration sim.Time
	// PayloadBytes is the CBR/backlogged packet size (paper: 512).
	PayloadBytes int
	// Core configures the monitor (used when Protocol == ProtocolCorrect).
	Core core.Params
	// MAC configures DCF timing and contention.
	MAC mac.Params
	// Shadowing configures propagation; Bitrate the channel rate.
	Shadowing phys.Shadowing
	BitRate   int64
	// RxRangeM and CsRangeM are the 50%-probability calibration
	// distances for reception and carrier sense. Zero selects the
	// paper's 250 m / 550 m. Shrinking CsRangeM below twice RxRangeM
	// creates hidden terminals.
	RxRangeM, CsRangeM float64
	// CoherenceInterval, when positive, enables sub-frame carrier-sense
	// re-draws in the medium.
	CoherenceInterval sim.Time
	// Channel selects the medium's channel model: ChannelV2 (the zero
	// value; per-pair counter RNG + spatial neighbor index) or
	// ChannelV3 (v2 plus a propagation delay, for sharded runs).
	Channel ChannelModel
	// Shards is the number of scheduler shards the run is spatially
	// partitioned across (0 and 1 both mean the serial kernel).
	// Shards > 1 requires ChannelV3, whose keyed event order makes
	// results independent of the shard count: a sharded run is
	// bit-identical to the serial run of the same scenario and seed.
	// It may not exceed the topology's node count.
	Shards int
	// BinSize enables the Figure-8 diagnosis time series when positive.
	BinSize sim.Time
	// QueueDepth is the backlogged-source refill depth.
	QueueDepth int
	// VerifyReceiverAtSenders enables the §4.4 sender-side audit of
	// assignments against G (only meaningful with ProtocolCorrect).
	VerifyReceiverAtSenders bool
	// GreedyReceivers lists receivers whose monitor misbehaves by
	// assigning zero base backoff (§4.4's greedy-receiver threat),
	// overriding Core.AssignMode for those nodes only.
	GreedyReceivers []frame.NodeID
	// ColludingReceivers lists receivers that collude with their
	// senders: zero base assignments *and* waived penalties (§4.4).
	// Only a third-party Watchdog can expose them.
	ColludingReceivers []frame.NodeID
	// Watchdog places a passive third-party observer at the centroid of
	// the topology, running §4.4's collusion detection. Results appear
	// in Result.CollusionsDetected / Result.ColludingPairs.
	Watchdog bool
	// TraceEvents, when positive, records up to that many frame
	// transmissions in Result.Trace (text timeline and pcap export),
	// read from the medium's channel trace records.
	TraceEvents int
	// Faults configures channel-error and node-churn fault injection
	// (see internal/faults). The zero value disables everything, and a
	// disabled config consumes no RNG draws, so the goldens are
	// bit-identical with faults off.
	Faults faults.Config
	// Observe configures the observability layer (metrics registry,
	// decision-trace bus; see internal/obs). Nil disables everything.
	// Observability is pass-through: enabling it changes no RNG draw and
	// schedules no event, so results are bit-identical either way
	// (pinned by the obs determinism test).
	Observe *obs.Config
}

// DefaultScenario returns the paper's base configuration: Figure-3
// ZERO-FLOW star with 8 senders, node 3 misbehaving with StrategyPartial,
// 50 s runs, 512 B packets, 2 Mbps channel, shadowing with σ = 1 dB,
// on channel model v2.
func DefaultScenario() Scenario {
	return Scenario{
		Name:         "zero-flow",
		Topo:         StarTopo(8, false, 3),
		Protocol:     ProtocolCorrect,
		Strategy:     StrategyPartial,
		PM:           0,
		Duration:     50 * sim.Second,
		PayloadBytes: 512,
		Core:         core.DefaultParams(),
		MAC:          mac.DefaultParams(),
		Shadowing:    phys.DefaultShadowing(),
		BitRate:      2_000_000,
		BinSize:      0,
		QueueDepth:   8,
	}
}

// StarTopo returns a topology builder for the Figure-3 star with the
// given misbehaving sender IDs (pass no IDs for a fully honest network).
func StarTopo(nSenders int, twoFlow bool, misbehaving ...int) func(uint64) *topo.Topology {
	ids := make([]frame.NodeID, 0, len(misbehaving))
	for _, id := range misbehaving {
		ids = append(ids, frame.NodeID(id))
	}
	return func(uint64) *topo.Topology {
		return topo.Star(nSenders, twoFlow, ids)
	}
}

// Validate reports whether the scenario is runnable.
func (s Scenario) Validate() error {
	switch {
	case s.Topo == nil:
		return fmt.Errorf("experiment: %s: nil topology builder", s.Name)
	case s.Duration <= 0:
		return fmt.Errorf("experiment: %s: duration %v", s.Name, s.Duration)
	case s.PayloadBytes <= 0:
		return fmt.Errorf("experiment: %s: payload %d", s.Name, s.PayloadBytes)
	case s.PM < 0 || s.PM > 100:
		return fmt.Errorf("experiment: %s: PM %d", s.Name, s.PM)
	case s.BitRate <= 0:
		return fmt.Errorf("experiment: %s: bit rate %d", s.Name, s.BitRate)
	case s.QueueDepth < 1:
		return fmt.Errorf("experiment: %s: queue depth %d", s.Name, s.QueueDepth)
	}
	switch s.Protocol {
	case Protocol80211, ProtocolCorrect:
	default:
		return fmt.Errorf("experiment: %s: invalid protocol %d", s.Name, s.Protocol)
	}
	switch s.Strategy {
	case StrategyPartial, StrategyQuarterWindow, StrategyNoDoubling, StrategyAttemptLiar:
	default:
		return fmt.Errorf("experiment: %s: invalid strategy %d", s.Name, s.Strategy)
	}
	switch s.Channel {
	case ChannelV2, ChannelV3:
	default:
		return fmt.Errorf("experiment: %s: invalid channel model %d", s.Name, int(s.Channel))
	}
	if s.Channel == ChannelV3 {
		if s.CoherenceInterval > 0 {
			return fmt.Errorf("experiment: %s: channel model v3 does not support a coherence interval", s.Name)
		}
		// v3's propagation delay must hide inside DCF's 2-slot response
		// timeout slack (internal/medium/v3.go); δ ≥ slot would make
		// CTS/ACK timeouts fire before the delayed response lands.
		if s.MAC.SlotTime <= medium.V3PropDelay {
			return fmt.Errorf("experiment: %s: channel model v3 needs slot time > %v propagation delay, have %v",
				s.Name, medium.V3PropDelay, s.MAC.SlotTime)
		}
	}
	if s.Shards < 0 {
		return fmt.Errorf("experiment: %s: negative shard count %d", s.Name, s.Shards)
	}
	if s.Shards > 1 && s.Channel != ChannelV3 {
		// The sharded kernel's correctness argument (DESIGN.md §11)
		// needs v3's propagation-delay lookahead and keyed ordering.
		// Faults and tracing are shard-ready: per-shard fault streams,
		// and the barrier-merged trace fan-in (DESIGN.md §12), which
		// also feeds the frame timeline, keep them bit-identical to
		// serial.
		return fmt.Errorf("experiment: %s: %d shards require channel model v3, have %v",
			s.Name, s.Shards, s.Channel)
	}
	if err := s.MAC.Validate(); err != nil {
		return fmt.Errorf("experiment: %s: %w", s.Name, err)
	}
	if s.Protocol == ProtocolCorrect {
		if err := s.Core.Validate(); err != nil {
			return fmt.Errorf("experiment: %s: %w", s.Name, err)
		}
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("experiment: %s: %w", s.Name, err)
	}
	if err := s.Observe.Validate(); err != nil {
		return fmt.Errorf("experiment: %s: %w", s.Name, err)
	}
	return s.Shadowing.Validate()
}
