package experiment

import (
	"bytes"
	"testing"

	"dcfguard/internal/sim"
)

// FuzzScenarioSpec throws arbitrary JSON at the spec admission path the
// sweep daemon and macsim share: whatever DecodeScenarioSpec and
// ToScenario accept must run without panicking. Specs over 64 nodes are
// skipped and the duration is capped at 20 ms to keep each input cheap;
// neither limit touches the admission checks themselves. Admission
// bounds the shard count by the node count, so the node limit bounds it
// too.
func FuzzScenarioSpec(f *testing.F) {
	for _, spec := range []string{
		`{"name": "quick", "topo": {"kind": "star", "senders": 8, "misbehaving": [3]}, "duration": "200ms"}`,
		`{"name": "two", "topo": {"kind": "star", "senders": 3, "two_flow": true}, "protocol": "802.11", "pm": 80, "duration": "1s"}`,
		`{"name": "rand", "topo": {"kind": "random", "nodes": 12, "mis": 2}, "channel": "v3", "shards": 2, "duration": "1s"}`,
		`{"name": "faulty", "topo": {"kind": "scaled-random", "nodes": 6}, "faults": {"fer": 0.2, "churn_interval": "5ms"}, "duration": "1s"}`,
		// Each of these passed admission and then panicked in topo
		// when the cell ran.
		`{"name": "one-node", "topo": {"kind": "random", "nodes": 1}, "duration": "1s"}`,
		`{"name": "neg-mis", "topo": {"kind": "random", "nodes": 3, "mis": -1}, "duration": "1s"}`,
		`{"name": "many-mis", "topo": {"kind": "random", "nodes": 2, "mis": 5}, "duration": "1s"}`,
		`{"name": "far-id", "topo": {"kind": "star", "senders": 8, "misbehaving": [99]}, "duration": "1s"}`,
		`{"name": "two-flow-one", "topo": {"kind": "star", "senders": 1, "two_flow": true, "misbehaving": [3]}, "duration": "1s"}`,
		// Passed admission, then allocated 10^8 shard outbox rows.
		`{"name": "many-shards", "topo": {"kind": "star", "senders": 8}, "channel": "v3", "shards": 10000, "duration": "1s"}`,
	} {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := DecodeScenarioSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, err := sp.ToScenario()
		if err != nil {
			return
		}
		if sp.Topo.Senders > 64 || sp.Topo.Nodes > 64 {
			t.Skip("over 64 nodes")
		}
		if s.Duration > 20*sim.Millisecond {
			s.Duration = 20 * sim.Millisecond
		}
		if err := s.Topo(1).Validate(); err != nil {
			t.Fatalf("admitted spec builds an invalid topology: %v", err)
		}
		// A run error is an allowed outcome; only a panic fails.
		_, _ = Run(s, 1)
	})
}
