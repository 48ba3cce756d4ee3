package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unicode/utf8"

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
		// Passed admission, then asked for 5e7 time-series bins.
		`{"name": "tiny-bins", "topo": {"kind": "star", "senders": 8}, "bin_size": "1us", "duration": "50s"}`,
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

// FuzzJournalCell throws arbitrary bytes at the journal's resume path
// under an arbitrary (scenario, seed) key. Loading never panics and
// reports a finished cell only when the decoded Result carries the
// key; a JournalCell → LoadJournaledCell round trip returns an
// identical Result. JSON cannot carry a name that is not valid UTF-8,
// so such keys only get the first half: they load as not finished.
func FuzzJournalCell(f *testing.F) {
	cell := `{"Scenario":"cell","Seed":7,"Duration":1000000000,"CorrectDiagnosisPct":87.5,` +
		`"Series":[{"Start":0,"CorrectPct":50,"Packets":4}],"ThroughputBySender":{"1":204.8},"ColludingPairs":[[3,1]]}`
	for _, in := range []struct {
		data     string
		scenario string
		seed     uint64
	}{
		{cell, "cell", 7},
		{cell, "cell", 8},  // another cell's result
		{cell, "other", 7}, // another cell's result
		{`{}`, "cell", 7},
		{`null`, "cell", 7},
		{`{"Scenario": truncated`, "cell", 7},
		{`[]`, "", 0},
	} {
		f.Add([]byte(in.data), in.scenario, in.seed)
	}
	f.Fuzz(func(t *testing.T, data []byte, scenario string, seed uint64) {
		if len(scenario) > 64 {
			return // keeps the cell's file name within file-system limits
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, CellFileName(scenario, seed)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, ok, err := LoadJournaledCell(dir, scenario, seed)
		if err != nil {
			t.Fatal(err)
		}
		if ok && (r.Scenario != scenario || r.Seed != seed) {
			t.Fatalf("cell (%q, %d) loaded as finished with key (%q, %d)", scenario, seed, r.Scenario, r.Seed)
		}
		if !ok {
			r = Result{Scenario: scenario, Seed: seed}
		}
		if !utf8.ValidString(r.Scenario) {
			return
		}
		if err := JournalCell(dir, r); err != nil {
			t.Fatal(err)
		}
		back, ok, err := LoadJournaledCell(dir, r.Scenario, r.Seed)
		if err != nil || !ok {
			t.Fatalf("journaled cell (%q, %d) did not load: ok=%v err=%v", r.Scenario, r.Seed, ok, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("journal round trip changed the Result:\n got %+v\nwant %+v", back, r)
		}
	})
}
