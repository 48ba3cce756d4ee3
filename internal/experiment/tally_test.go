package experiment

import (
	"math"
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/obs"
	"dcfguard/internal/sim"
	"dcfguard/internal/stats"
)

// classify feeds the tally one "window" record: sender's packet
// classified at now with the given verdict.
func classify(d *diagnosisTally, sender frame.NodeID, mis bool, now sim.Time) {
	verdict := "ok"
	if mis {
		verdict = "diagnosed"
	}
	d.Emit(obs.Record{Cat: obs.CatDiagnosis, Time: now, Node: 0, Peer: sender,
		Event: "window", Aux: verdict})
}

func newTally(binSize sim.Time, misbehaving ...frame.NodeID) *diagnosisTally {
	d := &diagnosisTally{misbehaving: map[frame.NodeID]bool{}, binSize: binSize}
	for _, id := range misbehaving {
		d.misbehaving[id] = true
	}
	return d
}

func TestTallyDiagnosisPercentages(t *testing.T) {
	d := newTally(0, 3)
	// Misbehaver (node 3): 8 classified, 6 flagged.
	for i := 0; i < 6; i++ {
		classify(d, 3, true, sim.Second)
	}
	for i := 0; i < 2; i++ {
		classify(d, 3, false, sim.Second)
	}
	// Honest node 1: 10 classified, 1 flagged.
	for i := 0; i < 9; i++ {
		classify(d, 1, false, sim.Second)
	}
	classify(d, 1, true, sim.Second)
	// Other diagnosis records are not classifications.
	d.Emit(obs.Record{Cat: obs.CatDiagnosis, Peer: 1, Event: "diagnosis", Aux: "diagnosed"})
	d.Emit(obs.Record{Cat: obs.CatDiagnosis, Peer: 3, Event: "proven"})
	d.Emit(obs.Record{Cat: obs.CatDiagnosis, Peer: 3, Event: "proven"})

	var r Result
	d.fill(&r)
	if math.Abs(r.CorrectDiagnosisPct-75) > 1e-12 {
		t.Fatalf("correct diagnosis = %v%%, want 75", r.CorrectDiagnosisPct)
	}
	if math.Abs(r.MisdiagnosisPct-10) > 1e-12 {
		t.Fatalf("misdiagnosis = %v%%, want 10", r.MisdiagnosisPct)
	}
	if r.ProvenMisbehaviors != 2 {
		t.Fatalf("proofs = %d, want 2", r.ProvenMisbehaviors)
	}
}

func TestTallyEmptyPercentages(t *testing.T) {
	var r Result
	newTally(sim.Second).fill(&r)
	if r.CorrectDiagnosisPct != 0 || r.MisdiagnosisPct != 0 || r.ProvenMisbehaviors != 0 {
		t.Fatalf("empty tally gave %+v, want zero metrics", r)
	}
	if r.Series == nil || len(r.Series) != 0 {
		t.Fatalf("empty tally series = %#v, want an empty non-nil list", r.Series)
	}
}

func TestTallySeries(t *testing.T) {
	d := newTally(sim.Second, 3)
	// Bin 0: 2 of 4 flagged. Bin 2: 3 of 3 flagged. Bin 1: empty.
	for i := 0; i < 2; i++ {
		classify(d, 3, true, 100*sim.Millisecond)
		classify(d, 3, false, 200*sim.Millisecond)
	}
	for i := 0; i < 3; i++ {
		classify(d, 3, true, 2500*sim.Millisecond)
	}
	// Honest traffic must not affect the series.
	classify(d, 1, true, 2500*sim.Millisecond)

	var r Result
	d.fill(&r)
	s := r.Series
	if len(s) != 3 {
		t.Fatalf("series has %d bins, want 3", len(s))
	}
	if s[0].CorrectPct != 50 || s[0].Packets != 4 {
		t.Fatalf("bin 0 = %+v", s[0])
	}
	if s[1].Packets != 0 || s[1].CorrectPct != 0 {
		t.Fatalf("bin 1 = %+v", s[1])
	}
	if s[2].CorrectPct != 100 || s[2].Packets != 3 || s[2].Start != 2*sim.Second {
		t.Fatalf("bin 2 = %+v", s[2])
	}
}

// trafficResult fills a Result over duration from delivered bytes and
// per-sender delays in milliseconds.
func trafficResult(duration sim.Time, measured []frame.NodeID, misbehaving []frame.NodeID,
	delivered map[frame.NodeID]int64, delaysMs map[frame.NodeID][]float64) Result {
	mis := map[frame.NodeID]bool{}
	for _, id := range misbehaving {
		mis[id] = true
	}
	r := Result{Duration: duration}
	r.fillTraffic(measured, mis, delivered, func(id frame.NodeID) stats.Welford {
		var w stats.Welford
		for _, d := range delaysMs[id] {
			w.Add(d)
		}
		return w
	})
	return r
}

func TestTrafficThroughput(t *testing.T) {
	// 100·512·8 bits over 2 s = 204.8 kbps; sender 2 delivered nothing.
	r := trafficResult(2*sim.Second, []frame.NodeID{1, 2}, nil,
		map[frame.NodeID]int64{1: 100 * 512}, nil)
	if got := r.ThroughputBySender[1]; math.Abs(got-204.8) > 1e-9 {
		t.Fatalf("throughput = %v, want 204.8", got)
	}
	if got, ok := r.ThroughputBySender[2]; !ok || got != 0 {
		t.Fatalf("starved sender throughput = %v (listed %v), want a listed 0", got, ok)
	}
	if math.Abs(r.TotalKbps-204.8) > 1e-9 {
		t.Fatalf("total = %v, want 204.8", r.TotalKbps)
	}
}

func TestTrafficSplitThroughput(t *testing.T) {
	r := trafficResult(sim.Second, []frame.NodeID{1, 2, 3}, []frame.NodeID{2},
		map[frame.NodeID]int64{1: 10_000, 2: 50_000, 3: 30_000}, nil)
	// Honest: (80 + 240)/2 = 160 kbps; misbehaving: 400 kbps.
	if math.Abs(r.AvgHonestKbps-160) > 1e-9 || math.Abs(r.AvgMisbehaverKbps-400) > 1e-9 {
		t.Fatalf("split = (%v, %v), want (160, 400)", r.AvgHonestKbps, r.AvgMisbehaverKbps)
	}
}

func TestTrafficSplitIncludesStarvedSenders(t *testing.T) {
	r := trafficResult(sim.Second, []frame.NodeID{1, 2}, nil, map[frame.NodeID]int64{1: 1000}, nil)
	if math.Abs(r.AvgHonestKbps-4) > 1e-9 { // (8 + 0)/2 kbps
		t.Fatalf("avg = %v, want 4 (starved sender must count as zero)", r.AvgHonestKbps)
	}
	if math.Abs(r.Fairness-0.5) > 1e-12 { // Jain(8, 0) = 64 / (2·64)
		t.Fatalf("fairness = %v, want 0.5 (starved sender must count as zero)", r.Fairness)
	}
}

func TestTrafficFairness(t *testing.T) {
	r := trafficResult(sim.Second, []frame.NodeID{1, 2}, nil,
		map[frame.NodeID]int64{1: 10_000, 2: 10_000}, nil)
	if math.Abs(r.Fairness-1) > 1e-12 {
		t.Fatalf("fairness = %v, want 1", r.Fairness)
	}
}

func TestTrafficSplitDelay(t *testing.T) {
	r := trafficResult(sim.Second, []frame.NodeID{1, 2, 3}, []frame.NodeID{3}, nil,
		map[frame.NodeID][]float64{1: {10, 30}, 2: {20}, 3: {4}})
	// Honest: (20 + 20)/2 ms, sender 1's mean being 20.
	if math.Abs(r.AvgHonestDelayMs-20) > 1e-9 {
		t.Fatalf("honest delay = %v, want 20", r.AvgHonestDelayMs)
	}
	if math.Abs(r.AvgMisbehaverDelayMs-4) > 1e-9 {
		t.Fatalf("misbehaver delay = %v, want 4", r.AvgMisbehaverDelayMs)
	}
}

func TestTrafficSplitDelaySkipsIdleSenders(t *testing.T) {
	// Sender 2 never completed a packet: it must not drag the honest
	// average toward zero (unlike throughput, where zero is the truth).
	r := trafficResult(sim.Second, []frame.NodeID{1, 2}, nil, nil,
		map[frame.NodeID][]float64{1: {10}})
	if math.Abs(r.AvgHonestDelayMs-10) > 1e-9 {
		t.Fatalf("honest delay = %v, want 10 (idle sender skipped)", r.AvgHonestDelayMs)
	}
}

func TestTrafficSplitDelayEmpty(t *testing.T) {
	r := trafficResult(sim.Second, []frame.NodeID{1, 2}, nil, nil, nil)
	if r.AvgHonestDelayMs != 0 || r.AvgMisbehaverDelayMs != 0 {
		t.Fatalf("empty split = (%v, %v)", r.AvgHonestDelayMs, r.AvgMisbehaverDelayMs)
	}
}
