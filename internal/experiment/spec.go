package experiment

// Serializable experiment specs: the wire form of a Scenario. A Scenario
// itself cannot round-trip through JSON — Topo is a function and Observe
// carries live sinks — so the sweep daemon (internal/serve) and the
// macsim -submit client exchange ScenarioSpec values instead: plain data
// that names a topology constructively and spells enums as their
// figure-label strings. DecodeScenarioSpec rejects unknown fields, so a
// typo in a submitted spec is a 4xx at admission, not a silently default
// knob; ToScenario applies DefaultScenario's defaults to absent fields
// and then runs the full Scenario.Validate gate.

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dcfguard/internal/core"
	"dcfguard/internal/faults"
	"dcfguard/internal/frame"
	"dcfguard/internal/mac"
	"dcfguard/internal/phys"
	"dcfguard/internal/sim"
	"dcfguard/internal/topo"
)

// TopoSpec names a topology constructively — by generator and
// parameters, never by coordinates — so the builder it yields is the
// same pure function of the run seed the in-process generators produce.
type TopoSpec struct {
	// Kind selects the generator: "star" (the Figure-3 star),
	// "random" (Figure 9's 1500 m × 700 m arena), or "scaled-random"
	// (the sparse corridor behind RunRandom200/400).
	Kind string `json:"kind"`
	// Senders, TwoFlow and Misbehaving parameterise Kind "star".
	Senders     int   `json:"senders,omitempty"`
	TwoFlow     bool  `json:"two_flow,omitempty"`
	Misbehaving []int `json:"misbehaving,omitempty"`
	// Nodes and Mis parameterise Kind "random" and "scaled-random".
	Nodes int `json:"nodes,omitempty"`
	Mis   int `json:"mis,omitempty"`
}

// Build returns the topology builder the spec names. It mirrors the
// generators' preconditions (topo.Star, topo.Random) as errors, so a bad
// spec fails here at admission instead of panicking when a cell runs.
func (t TopoSpec) Build() (func(uint64) *topo.Topology, error) {
	switch t.Kind {
	case "star":
		if t.Senders < 1 {
			return nil, fmt.Errorf("experiment: topo star: senders %d", t.Senders)
		}
		for _, id := range t.Misbehaving {
			if id < 1 || id > t.Senders {
				return nil, fmt.Errorf("experiment: topo star: misbehaving id %d outside senders 1..%d", id, t.Senders)
			}
		}
		return StarTopo(t.Senders, t.TwoFlow, t.Misbehaving...), nil
	case "random", "scaled-random":
		if t.Nodes < 2 {
			return nil, fmt.Errorf("experiment: topo %s: nodes %d (want at least 2)", t.Kind, t.Nodes)
		}
		if t.Mis < 0 || t.Mis > t.Nodes {
			return nil, fmt.Errorf("experiment: topo %s: mis %d outside 0..%d", t.Kind, t.Mis, t.Nodes)
		}
		if t.Kind == "random" {
			return RandomTopo(t.Nodes, t.Mis), nil
		}
		return ScaledRandomTopo(t.Nodes, t.Mis), nil
	default:
		return nil, fmt.Errorf("experiment: unknown topo kind %q (want star, random, or scaled-random)", t.Kind)
	}
}

// nodes returns the node count of the topology the spec names: a star
// has its senders and receiver, plus four with two-flow.
func (t TopoSpec) nodes() int {
	if t.Kind != "star" {
		return t.Nodes
	}
	n := t.Senders + 1
	if t.TwoFlow {
		n += 4
	}
	return n
}

// GESpec is the wire form of faults.GE.
type GESpec struct {
	PGoodBad float64 `json:"p_good_bad"`
	PBadGood float64 `json:"p_bad_good"`
	GoodFER  float64 `json:"good_fer"`
	BadFER   float64 `json:"bad_fer"`
}

// FaultsSpec is the wire form of faults.Config, with intervals spelled
// as Go duration strings.
type FaultsSpec struct {
	FER           float64 `json:"fer,omitempty"`
	Burst         *GESpec `json:"burst,omitempty"`
	ChurnInterval string  `json:"churn_interval,omitempty"`
	ChurnDowntime string  `json:"churn_downtime,omitempty"`
}

// ScenarioSpec is the wire form of a Scenario: every serializable knob,
// with enums as strings, durations as Go duration strings ("2s",
// "750ms"), and the topology named constructively. Absent fields take
// DefaultScenario's values, so the minimal useful spec is just
// {"name": ..., "topo": {...}, "duration": ...}.
type ScenarioSpec struct {
	Name string   `json:"name"`
	Topo TopoSpec `json:"topo"`
	// Protocol is "802.11" or "CORRECT" (default "CORRECT");
	// Strategy is "partial", "quarter-window", "no-doubling", or
	// "attempt-liar" (default "partial").
	Protocol string `json:"protocol,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	PM       int    `json:"pm,omitempty"`
	Duration string `json:"duration"`
	// PayloadBytes, BitRate and QueueDepth default to the paper's
	// 512 B / 2 Mbps / depth 8 when zero.
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// Core, MAC and Shadowing override the default parameter blocks
	// when non-nil (field names are the Go struct names).
	Core              *core.Params    `json:"core,omitempty"`
	MAC               *mac.Params     `json:"mac,omitempty"`
	Shadowing         *phys.Shadowing `json:"shadowing,omitempty"`
	BitRate           int64           `json:"bit_rate,omitempty"`
	RxRangeM          float64         `json:"rx_range_m,omitempty"`
	CsRangeM          float64         `json:"cs_range_m,omitempty"`
	CoherenceInterval string          `json:"coherence_interval,omitempty"`
	// Channel is "v2" (default) or "v3".
	Channel                 string      `json:"channel,omitempty"`
	Shards                  int         `json:"shards,omitempty"`
	BinSize                 string      `json:"bin_size,omitempty"`
	QueueDepth              int         `json:"queue_depth,omitempty"`
	VerifyReceiverAtSenders bool        `json:"verify_receiver_at_senders,omitempty"`
	GreedyReceivers         []int       `json:"greedy_receivers,omitempty"`
	ColludingReceivers      []int       `json:"colluding_receivers,omitempty"`
	Watchdog                bool        `json:"watchdog,omitempty"`
	TraceEvents             int         `json:"trace_events,omitempty"`
	Faults                  *FaultsSpec `json:"faults,omitempty"`
}

// ParseProtocol maps a wire protocol name to its enum; "" selects the
// default (CORRECT).
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "", "CORRECT", "correct":
		return ProtocolCorrect, nil
	case "802.11", "80211":
		return Protocol80211, nil
	default:
		return 0, fmt.Errorf("experiment: unknown protocol %q (want 802.11 or CORRECT)", s)
	}
}

// ParseStrategy maps a wire strategy name to its enum; "" selects the
// default (partial).
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "partial":
		return StrategyPartial, nil
	case "quarter-window":
		return StrategyQuarterWindow, nil
	case "no-doubling":
		return StrategyNoDoubling, nil
	case "attempt-liar":
		return StrategyAttemptLiar, nil
	default:
		return 0, fmt.Errorf("experiment: unknown strategy %q (want partial, quarter-window, no-doubling, or attempt-liar)", s)
	}
}

// ParseChannel maps a wire channel name to its model; "" selects the
// default (v2).
func ParseChannel(s string) (ChannelModel, error) {
	switch s {
	case "", "v2":
		return ChannelV2, nil
	case "v3":
		return ChannelV3, nil
	case "v1":
		return 0, fmt.Errorf("experiment: channel model v1 was retired; v2 is the default (run commit 4939f40 to replay v1 results)")
	default:
		return 0, fmt.Errorf("experiment: unknown channel model %q (want v2 or v3)", s)
	}
}

// parseSimTime parses an optional Go duration string into simulated
// time; "" yields zero.
func parseSimTime(field, s string) (sim.Time, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("experiment: %s: %w", field, err)
	}
	return sim.Time(d), nil
}

func nodeIDs(ids []int) []frame.NodeID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]frame.NodeID, len(ids))
	for i, id := range ids {
		out[i] = frame.NodeID(id)
	}
	return out
}

// ToScenario materialises the spec: defaults applied, enums parsed,
// topology built, and the result passed through Scenario.Validate so a
// bad spec fails at admission rather than mid-run.
func (sp ScenarioSpec) ToScenario() (Scenario, error) {
	s := DefaultScenario()
	s.Name = sp.Name
	if s.Name == "" {
		return Scenario{}, fmt.Errorf("experiment: spec has no name")
	}
	var err error
	if s.Topo, err = sp.Topo.Build(); err != nil {
		return Scenario{}, err
	}
	if s.Protocol, err = ParseProtocol(sp.Protocol); err != nil {
		return Scenario{}, err
	}
	if s.Strategy, err = ParseStrategy(sp.Strategy); err != nil {
		return Scenario{}, err
	}
	if s.Channel, err = ParseChannel(sp.Channel); err != nil {
		return Scenario{}, err
	}
	if sp.Duration == "" {
		return Scenario{}, fmt.Errorf("experiment: spec %q has no duration", sp.Name)
	}
	if s.Duration, err = parseSimTime("duration", sp.Duration); err != nil {
		return Scenario{}, err
	}
	if s.CoherenceInterval, err = parseSimTime("coherence_interval", sp.CoherenceInterval); err != nil {
		return Scenario{}, err
	}
	if s.BinSize, err = parseSimTime("bin_size", sp.BinSize); err != nil {
		return Scenario{}, err
	}
	s.PM = sp.PM
	if sp.PayloadBytes != 0 {
		s.PayloadBytes = sp.PayloadBytes
	}
	if sp.Core != nil {
		s.Core = *sp.Core
	}
	if sp.MAC != nil {
		s.MAC = *sp.MAC
	}
	if sp.Shadowing != nil {
		s.Shadowing = *sp.Shadowing
	}
	if sp.BitRate != 0 {
		s.BitRate = sp.BitRate
	}
	s.RxRangeM = sp.RxRangeM
	s.CsRangeM = sp.CsRangeM
	s.Shards = sp.Shards
	if n := sp.Topo.nodes(); s.Shards > n {
		return Scenario{}, fmt.Errorf("experiment: spec %q: %d shards exceed the topology's %d nodes", sp.Name, s.Shards, n)
	}
	if sp.QueueDepth != 0 {
		s.QueueDepth = sp.QueueDepth
	}
	s.VerifyReceiverAtSenders = sp.VerifyReceiverAtSenders
	s.GreedyReceivers = nodeIDs(sp.GreedyReceivers)
	s.ColludingReceivers = nodeIDs(sp.ColludingReceivers)
	s.Watchdog = sp.Watchdog
	s.TraceEvents = sp.TraceEvents
	if sp.Faults != nil {
		s.Faults.FER = sp.Faults.FER
		if sp.Faults.Burst != nil {
			s.Faults.Burst = &faults.GE{
				PGoodBad: sp.Faults.Burst.PGoodBad,
				PBadGood: sp.Faults.Burst.PBadGood,
				GoodFER:  sp.Faults.Burst.GoodFER,
				BadFER:   sp.Faults.Burst.BadFER,
			}
		}
		if s.Faults.ChurnInterval, err = parseSimTime("churn_interval", sp.Faults.ChurnInterval); err != nil {
			return Scenario{}, err
		}
		if s.Faults.ChurnDowntime, err = parseSimTime("churn_downtime", sp.Faults.ChurnDowntime); err != nil {
			return Scenario{}, err
		}
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// DecodeScenarioSpec decodes one JSON spec, rejecting unknown fields and
// trailing garbage.
func DecodeScenarioSpec(r io.Reader) (ScenarioSpec, error) {
	var sp ScenarioSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return ScenarioSpec{}, fmt.Errorf("experiment: decoding spec: %w", err)
	}
	if err := trailingJSON(dec); err != nil {
		return ScenarioSpec{}, err
	}
	return sp, nil
}

func trailingJSON(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("experiment: trailing data after spec")
	}
	return nil
}
