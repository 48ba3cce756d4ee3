package experiment

import (
	"fmt"
	"sort"
	"testing"

	"dcfguard/internal/frame"
)

// The determinism goldens (determinism_v2_test.go and its siblings)
// pin a checksum over every Result field for canonical scenarios,
// seeds 1-3. Their purpose is to prove
// that hot-path optimisations (the medium's mean-power cache, the event
// pool, the non-allocating RNG stream labels) do not perturb the RNG
// draw order or event ordering: any change to a single backoff draw or
// shadowing sample cascades into these metrics. The goldens were
// captured before the changes they guard and must never be
// updated to "make the test pass" after a kernel change — a mismatch
// means the change is not behaviour-preserving.

// resultChecksum renders the deterministic Result fields canonically and
// hashes them with FNV-1a. Maps are rendered in sorted key order.
func resultChecksum(r Result) uint64 {
	s := fmt.Sprintf("%s|%d|%d|%.9g|%.9g|%.9g|%.9g|%.9g|%.9g|%.9g|%.9g|%d|%d|%d|%v|%d",
		r.Scenario, r.Seed, r.Duration,
		r.CorrectDiagnosisPct, r.MisdiagnosisPct,
		r.AvgHonestKbps, r.AvgMisbehaverKbps,
		r.AvgHonestDelayMs, r.AvgMisbehaverDelayMs,
		r.TotalKbps, r.Fairness,
		r.ProvenMisbehaviors, r.GreedyDetections, r.CollusionsDetected,
		r.ColludingPairs, r.EventsFired)
	ids := make([]int, 0, len(r.ThroughputBySender))
	for id := range r.ThroughputBySender {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		s += fmt.Sprintf("|%d:%.9g", id, r.ThroughputBySender[frame.NodeID(id)])
	}
	for _, p := range r.Series {
		s += fmt.Sprintf("|%d,%.9g,%d", p.Start, p.CorrectPct, p.Packets)
	}
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// TestDeterminismRepeatable asserts the weaker property that two runs of
// the same (scenario, seed) in one process are identical, independent of
// the goldens (catches accidental global state).
func TestDeterminismRepeatable(t *testing.T) {
	s := goldenScenariosV2()[0]
	a, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resultChecksum(a) != resultChecksum(b) {
		t.Fatal("same (scenario, seed) produced different results in one process")
	}
}
