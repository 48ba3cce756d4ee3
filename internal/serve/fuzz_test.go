package serve

import (
	"bytes"
	"testing"
)

// FuzzJobSpec throws arbitrary JSON at the daemon's job admission path:
// whatever DecodeJobSpec decodes, buildJob must judge without
// panicking, and any spec it admits must survive the spec.json round
// trip (writeSpec, then readSpec) unchanged — recovery rebuilds the job
// from that file, and an idempotent resubmission after a restart is
// compared against it. Specs over 64 seeds are skipped: buildJob
// expands the seed set before any admission bound applies.
func FuzzJobSpec(f *testing.F) {
	for _, spec := range []string{
		`{"name": "quick", "scenario": {"name": "quick", "topo": {"kind": "star", "senders": 8, "misbehaving": [3]}, "pm": 80, "duration": "200ms"}, "seed_list": [1, 2]}`,
		`{"name": "t", "tenant": "alice", "scenario": {"name": "t", "topo": {"kind": "random", "nodes": 12, "mis": 2}, "channel": "v3", "shards": 2, "duration": "1s"}, "seeds": 3}`,
		`{"name": "both", "scenario": {"name": "b", "topo": {"kind": "star", "senders": 3}}, "seeds": 2, "seed_list": [5]}`,
		`{"name": "../escape", "scenario": {"name": "e", "topo": {"kind": "star", "senders": 3}}}`,
		`{"name": "empty-list", "scenario": {"name": "e", "topo": {"kind": "star", "senders": 3}, "duration": "1s"}, "seed_list": []}`,
	} {
		f.Add([]byte(spec))
	}
	var s Server
	f.Fuzz(func(t *testing.T, data []byte) {
		js, err := DecodeJobSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if js.Seeds > 64 || len(js.SeedList) > 64 {
			t.Skip("over 64 seeds")
		}
		if _, err := s.buildJob(js); err != nil {
			return
		}
		st := store{dir: t.TempDir()}
		if err := st.writeSpec(js); err != nil {
			t.Fatalf("writeSpec of an admitted spec: %v", err)
		}
		got, err := st.readSpec(js.Name)
		if err != nil {
			t.Fatalf("readSpec of an admitted spec: %v", err)
		}
		if !specEqual(got, js) {
			t.Fatalf("spec.json round trip changed the spec:\nwrote %+v\nread  %+v", js, got)
		}
	})
}
