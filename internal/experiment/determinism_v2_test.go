package experiment

import (
	"testing"

	"dcfguard/internal/sim"
)

// Channel-model-v2 determinism goldens, the counterpart of
// determinism_test.go for Scenario.Channel == ChannelV2. The same
// rules apply: the checksums were captured when the v2 channel was
// introduced and must never be updated to "make the test pass" — a
// mismatch means a later change perturbed the counter-RNG key
// derivation, the neighbor enumeration order, or event ordering.
// (v2 results legitimately differ from v1's: the two models draw from
// different RNG constructions. Each pins its own goldens.)

// goldenScenariosV2 returns the canonical v2 scenarios at guard scale:
// the monitored star, the 40-node random topology, and the star under
// coherence-interval sensing — the three v2 code paths (fan-out,
// spatial index at scale, and the coherent segment loop) — plus the
// plain 802.11 star, the MAC kernel with no monitor.
func goldenScenariosV2() []Scenario {
	starCorrect := DefaultScenario()
	starCorrect.Name = "star-correct-v2"
	starCorrect.Protocol = ProtocolCorrect
	starCorrect.PM = 80
	starCorrect.Duration = 2 * sim.Second

	random40 := DefaultScenario()
	random40.Name = "random-40-v2"
	random40.Topo = RandomTopo(40, 5)
	random40.PM = 80
	random40.Duration = 2 * sim.Second

	starCoherent := DefaultScenario()
	starCoherent.Name = "star-coherent-v2"
	starCoherent.Protocol = ProtocolCorrect
	starCoherent.PM = 80
	starCoherent.Duration = 2 * sim.Second
	starCoherent.CoherenceInterval = 20 * sim.Microsecond

	star80211 := DefaultScenario()
	star80211.Name = "star-802.11-v2"
	star80211.Protocol = Protocol80211
	star80211.PM = 80
	star80211.Duration = 2 * sim.Second

	return []Scenario{starCorrect, random40, starCoherent, star80211}
}

// goldenChecksumsV2 holds the pinned per-seed checksums, captured from
// the initial channel-model-v2 implementation.
var goldenChecksumsV2 = map[string][3]uint64{
	"star-correct-v2":  {0x80b312ae6234ab51, 0x459b8ed95a4e01cc, 0x5b55afe26a6d9c9b},
	"random-40-v2":     {0x639950d4cdc9a371, 0x4d612ac66ec75994, 0xc82837c334c3e417},
	"star-coherent-v2": {0x85dd797384accd5f, 0xc87d8bb230db282b, 0x39d4f655df4353f5},
	"star-802.11-v2":   {0xf4e68483d46e05e0, 0x90f75372a784cea, 0x4fc186fbb73c4a07},
}

func TestDeterminismGoldenV2(t *testing.T) {
	for _, s := range goldenScenariosV2() {
		want, ok := goldenChecksumsV2[s.Name]
		if !ok {
			t.Fatalf("no golden for scenario %q", s.Name)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			r, err := Run(s, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name, seed, err)
			}
			got := resultChecksum(r)
			if got != want[seed-1] {
				t.Errorf("%s seed %d: checksum %#x, golden %#x — a change perturbed the v2 counter-RNG keys, neighbor enumeration, or event ordering",
					s.Name, seed, got, want[seed-1])
			}
		}
	}
}
