package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"dcfguard/internal/sim"
)

// timelineGoldenScenarios are the runs whose frame timeline and pcap
// export are pinned byte for byte: the v2 CORRECT star with no cap, a
// capped v2 random topology, and a capped v3 scaled random topology at
// several shard counts. Together they cover every channel model, the
// cap cutoff, and the sharded merge order.
func timelineGoldenScenarios() []Scenario {
	star := DefaultScenario()
	star.Name = "timeline-star-v2"
	star.Protocol = ProtocolCorrect
	star.PM = 80
	star.Duration = 2 * sim.Second
	star.TraceEvents = math.MaxInt32

	random40 := DefaultScenario()
	random40.Name = "timeline-random40-v2"
	random40.Topo = RandomTopo(40, 5)
	random40.Duration = sim.Second
	random40.TraceEvents = 500

	out := []Scenario{star, random40}
	for _, shards := range []int{1, 2, 4} {
		s := DefaultScenario()
		s.Name = "timeline-scaled120-v3"
		s.Channel = ChannelV3
		s.Topo = ScaledRandomTopo(120, 15)
		s.Duration = 150 * sim.Millisecond
		s.TraceEvents = 400
		s.Shards = shards
		out = append(out, s)
	}
	return out
}

// timelineGoldens holds the SHA-256 of Trace.Text() and of WritePcap's
// output for each scenario (seed 1). The sharded v3 runs share the
// serial run's digests: sharding must not move a byte.
var timelineGoldens = map[string][2]string{
	"timeline-star-v2": {
		"c38e28c3e311753dc6cbc6f4b54d7ea07004d6ef7a424fb29ea9d5e55791e157",
		"a7641b0035d0e0e8b9ce3e89285dbb1c73d7959041c70f76f6570d50124bbc48",
	},
	"timeline-random40-v2": {
		"5684de090c06704731ea9dec65aa9f66095b15f955df2d99624560bca6ad2b8d",
		"fdf927edccaa2f0fc5b16ae0166733f26660b3afd1602c90df9c3f4069b8839c",
	},
	"timeline-scaled120-v3": {
		"b10fa8a014f1f2e2a624e4ae3408b244632bd2f799c6d151f59081bde6fec989",
		"058fb623da3e2b30f38574d5f5b33374c34aaf64bcd08fd3f5108592923e32cd",
	},
}

func TestTimelineGolden(t *testing.T) {
	for _, s := range timelineGoldenScenarios() {
		r, err := Run(s, 1)
		if err != nil {
			t.Fatalf("%s shards=%d: %v", s.Name, s.Shards, err)
		}
		if r.Trace == nil || r.Trace.Len() == 0 {
			t.Fatalf("%s shards=%d: no frame timeline", s.Name, s.Shards)
		}
		var pcap bytes.Buffer
		if err := r.Trace.WritePcap(&pcap); err != nil {
			t.Fatalf("%s shards=%d: %v", s.Name, s.Shards, err)
		}
		textSum := sha256.Sum256([]byte(r.Trace.Text()))
		pcapSum := sha256.Sum256(pcap.Bytes())
		got := [2]string{hex.EncodeToString(textSum[:]), hex.EncodeToString(pcapSum[:])}
		if want := timelineGoldens[s.Name]; got != want {
			t.Errorf("%s shards=%d: timeline/pcap digests %q, golden %q", s.Name, s.Shards, got, want)
		}
	}
}
