package experiment

import (
	"encoding/json"
	"strings"
	"testing"

	"dcfguard/internal/sim"
)

// TestScenarioSpecMinimal: the minimal spec materialises to
// DefaultScenario with the named topology and duration.
func TestScenarioSpecMinimal(t *testing.T) {
	sp, err := DecodeScenarioSpec(strings.NewReader(
		`{"name": "quick", "topo": {"kind": "star", "senders": 8, "misbehaving": [3]}, "duration": "200ms"}`))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sp.ToScenario()
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultScenario()
	if s.Duration != 200*sim.Millisecond {
		t.Fatalf("duration %v", s.Duration)
	}
	if s.Protocol != ProtocolCorrect || s.Strategy != StrategyPartial || s.Channel != ChannelV2 {
		t.Fatalf("enum defaults: %v %v %v", s.Protocol, s.Strategy, s.Channel)
	}
	if s.PayloadBytes != want.PayloadBytes || s.BitRate != want.BitRate ||
		s.QueueDepth != want.QueueDepth || s.Core != want.Core || s.MAC != want.MAC {
		t.Fatal("defaults not applied")
	}
}

// TestScenarioSpecRunEquivalence: a spec-built scenario runs
// bit-identical to the hand-built scenario it describes — the property
// that makes daemon-submitted sweeps interchangeable with direct runs.
func TestScenarioSpecRunEquivalence(t *testing.T) {
	sp := ScenarioSpec{
		Name:     "spec-equiv",
		Topo:     TopoSpec{Kind: "star", Senders: 8, Misbehaving: []int{3}},
		PM:       80,
		Duration: "200ms",
	}
	s, err := sp.ToScenario()
	if err != nil {
		t.Fatal(err)
	}
	direct := quickScenario("spec-equiv")
	for _, seed := range []uint64{1, 2} {
		got, err := Run(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(direct, seed)
		if err != nil {
			t.Fatal(err)
		}
		if resultChecksum(got) != resultChecksum(want) {
			t.Fatalf("seed %d: spec-built run differs from direct run", seed)
		}
	}
}

// TestScenarioSpecRandomTopo: the random topology kinds build the same
// per-seed topologies as the in-process generators.
func TestScenarioSpecRandomTopo(t *testing.T) {
	sp := ScenarioSpec{
		Name:     "spec-random",
		Topo:     TopoSpec{Kind: "random", Nodes: 40, Mis: 5},
		PM:       80,
		Duration: "50ms",
	}
	s, err := sp.ToScenario()
	if err != nil {
		t.Fatal(err)
	}
	direct := DefaultScenario()
	direct.Name = "spec-random"
	direct.Topo = RandomTopo(40, 5)
	direct.PM = 80
	direct.Duration = 50 * sim.Millisecond
	got, err := Run(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(direct, 7)
	if err != nil {
		t.Fatal(err)
	}
	if resultChecksum(got) != resultChecksum(want) {
		t.Fatal("spec-built random run differs from direct run")
	}
}

// TestScenarioSpecRoundTrip: a fully-populated spec survives a JSON
// round-trip field-for-field.
func TestScenarioSpecRoundTrip(t *testing.T) {
	sp := ScenarioSpec{
		Name:       "full",
		Topo:       TopoSpec{Kind: "random", Nodes: 40, Mis: 5},
		Protocol:   "802.11",
		Strategy:   "quarter-window",
		PM:         60,
		Duration:   "2s",
		BitRate:    1_000_000,
		Channel:    "v3",
		Shards:     2,
		BinSize:    "1s",
		QueueDepth: 4,
		Watchdog:   true,
		Faults: &FaultsSpec{
			FER:           0.1,
			Burst:         &GESpec{PGoodBad: 0.01, PBadGood: 0.2, BadFER: 1},
			ChurnInterval: "500ms",
		},
	}
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeScenarioSpec(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(sp)
	b, _ := json.Marshal(back)
	if string(a) != string(b) {
		t.Fatalf("round trip changed the spec:\n%s\n%s", a, b)
	}
	if _, err := back.ToScenario(); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioSpecRejectsUnknownFields: a typo'd knob is an admission
// error, never a silently applied default.
func TestScenarioSpecRejectsUnknownFields(t *testing.T) {
	cases := []string{
		`{"name": "x", "topo": {"kind": "star", "senders": 1}, "duration": "1s", "pmm": 80}`,
		`{"name": "x", "topo": {"kind": "star", "senders": 1, "nods": 4}, "duration": "1s"}`,
		`{"name": "x", "topo": {"kind": "star", "senders": 1}, "duration": "1s"} extra`,
	}
	for _, c := range cases {
		if _, err := DecodeScenarioSpec(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted %s", c)
		}
	}
}

// TestScenarioSpecValidation: bad specs fail at admission with
// field-naming errors.
func TestScenarioSpecValidation(t *testing.T) {
	cases := []struct {
		spec ScenarioSpec
		want string
	}{
		{ScenarioSpec{Topo: TopoSpec{Kind: "star", Senders: 1}, Duration: "1s"}, "no name"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "ring"}, Duration: "1s"}, "topo kind"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star"}, Duration: "1s"}, "senders"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "random"}, Duration: "1s"}, "nodes"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 1}}, "no duration"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 1}, Duration: "fast"}, "duration"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 1}, Duration: "1s", Protocol: "aloha"}, "protocol"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 1}, Duration: "1s", Strategy: "yolo"}, "strategy"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 1}, Duration: "1s", Channel: "v9"}, "channel"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 1}, Duration: "1s", Channel: "v1"}, "v1 was retired"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 1}, Duration: "1s", Shards: 2}, "v3"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 1}, Duration: "1s", PM: 120}, "PM"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 1}, Duration: "1s", BinSize: "-1ms"}, "negative bin size"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 1}, Duration: "1s", CoherenceInterval: "-1us"}, "negative coherence interval"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 1}, Duration: "50s", BinSize: "1us"}, "gives 50000000 bins"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 8}, Duration: "1s", Channel: "v3", Shards: 10000}, "10000 shards exceed the topology's 9 nodes"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "star", Senders: 1, TwoFlow: true}, Duration: "1s", Channel: "v3", Shards: 7}, "7 shards exceed the topology's 6 nodes"},
		{ScenarioSpec{Name: "x", Topo: TopoSpec{Kind: "scaled-random", Nodes: 3}, Duration: "1s", Channel: "v3", Shards: 4}, "4 shards exceed the topology's 3 nodes"},
	}
	for _, c := range cases {
		_, err := c.spec.ToScenario()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("spec %+v: error %v, want mention of %q", c.spec, err, c.want)
		}
	}
}

// TestTopoSpecBuild: Build rejects every topology the generators would
// panic on, and every spec it accepts builds without panicking.
func TestTopoSpecBuild(t *testing.T) {
	cases := []struct {
		name string
		spec TopoSpec
		want string // "" when the spec must be accepted
	}{
		{"star", TopoSpec{Kind: "star", Senders: 8, Misbehaving: []int{3}}, ""},
		{"star lowest and highest id", TopoSpec{Kind: "star", Senders: 2, Misbehaving: []int{1, 2}}, ""},
		{"star no senders", TopoSpec{Kind: "star"}, "experiment: topo star: senders 0"},
		{"star id past senders", TopoSpec{Kind: "star", Senders: 8, Misbehaving: []int{99}}, "experiment: topo star: misbehaving id 99 outside senders 1..8"},
		{"star id zero", TopoSpec{Kind: "star", Senders: 8, Misbehaving: []int{0}}, "misbehaving id 0 outside"},
		{"star negative id", TopoSpec{Kind: "star", Senders: 8, Misbehaving: []int{-2}}, "misbehaving id -2 outside"},
		{"two-flow one sender", TopoSpec{Kind: "star", Senders: 1, TwoFlow: true, Misbehaving: []int{3}}, "misbehaving id 3 outside senders 1..1"},
		{"two-flow one sender, no misbehaver", TopoSpec{Kind: "star", Senders: 1, TwoFlow: true}, ""},
		{"random", TopoSpec{Kind: "random", Nodes: 40, Mis: 5}, ""},
		{"random smallest", TopoSpec{Kind: "random", Nodes: 2, Mis: 2}, ""},
		{"random no nodes", TopoSpec{Kind: "random"}, "experiment: topo random: nodes 0"},
		{"random one node", TopoSpec{Kind: "random", Nodes: 1}, "experiment: topo random: nodes 1 (want at least 2)"},
		{"random negative mis", TopoSpec{Kind: "random", Nodes: 3, Mis: -1}, "experiment: topo random: mis -1 outside 0..3"},
		{"random mis past nodes", TopoSpec{Kind: "random", Nodes: 2, Mis: 5}, "experiment: topo random: mis 5 outside 0..2"},
		{"scaled-random", TopoSpec{Kind: "scaled-random", Nodes: 40, Mis: 5}, ""},
		{"scaled-random one node", TopoSpec{Kind: "scaled-random", Nodes: 1}, "experiment: topo scaled-random: nodes 1"},
		{"scaled-random mis past nodes", TopoSpec{Kind: "scaled-random", Nodes: 4, Mis: 5}, "experiment: topo scaled-random: mis 5 outside 0..4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build, err := c.spec.Build()
			if c.want != "" {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("err %v, want one containing %q", err, c.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := build(1).Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
