package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/sim"
	"dcfguard/internal/topo"
)

// The exact-Result pin. The determinism goldens hash metrics rendered
// with %.9g, which hides a change in the last bits of a float; this
// test hashes the encoding/json form of the Results, which round-trips
// every float64 exactly. Each case covers one way Result's counts are
// gathered: the Figure-8 series, honest senders beside a misbehaver,
// attempt-verification proofs, a monitor-free 802.11 run, a sharded
// run, churn under frame errors, and a watchdog verdict. The digests
// were recorded before the counting moved and must not be updated to
// make the test pass: a mismatch means a Result changed.

type exactCase struct {
	s      Scenario
	digest string
	// exercised guards the case against silently losing its feature.
	exercised func(Result) bool
}

func exactResultCases() []exactCase {
	series := DefaultScenario()
	series.Name = "exact-series"
	series.PM = 80
	series.Duration = 3 * sim.Second
	series.BinSize = sim.Second

	twoFlow := DefaultScenario()
	twoFlow.Name = "exact-two-flow"
	twoFlow.Topo = StarTopo(8, true, 3)
	twoFlow.PM = 30
	twoFlow.Duration = 2 * sim.Second

	liar := DefaultScenario()
	liar.Name = "exact-attempt-liar"
	liar.Strategy = StrategyAttemptLiar
	liar.PM = 80
	liar.Duration = 2 * sim.Second
	liar.Core.VerifyAttempts = true
	liar.Core.VerifyDropProb = 0.05

	dcf := DefaultScenario()
	dcf.Name = "exact-random-40-802.11"
	dcf.Protocol = Protocol80211
	dcf.Topo = RandomTopo(40, 5)
	dcf.PM = 80
	dcf.Duration = 2 * sim.Second

	sharded := DefaultScenario()
	sharded.Name = "exact-random-40-v3-2shards"
	sharded.Topo = RandomTopo(40, 5)
	sharded.PM = 80
	sharded.Duration = 2 * sim.Second
	sharded.Channel = ChannelV3
	sharded.Shards = 2

	churn := DefaultScenario()
	churn.Name = "exact-churn-fer"
	churn.PM = 80
	churn.Duration = 2 * sim.Second
	churn.Faults.FER = 0.10
	churn.Faults.ChurnInterval = 500 * sim.Millisecond
	churn.Faults.ChurnDowntime = 100 * sim.Millisecond

	colluding := DefaultScenario()
	colluding.Name = "exact-colluding-watchdog"
	colluding.PM = 100
	colluding.Duration = 3 * sim.Second
	colluding.ColludingReceivers = []frame.NodeID{1}
	colluding.Watchdog = true
	pair := receiverPairTopo()
	colluding.Topo = func(seed uint64) *topo.Topology {
		tp := pair(seed)
		tp.Misbehaving = []frame.NodeID{3}
		return tp
	}

	return []exactCase{
		{series, "5e17aadb14a430f6f243ee80f5575ec75c5f32a6ae69f1b38498be99622fe218",
			func(r Result) bool { return len(r.Series) == 3 }},
		{twoFlow, "5bd0c5f4821740bb2a11d18e9c9e7009adf6d8206d6436f3d49473b81a1f9e7e",
			func(r Result) bool { return r.MisdiagnosisPct > 0 }},
		{liar, "093779b59a72369adabdce1e66c7726607febb4737252034612dbe4ef2af0588",
			func(r Result) bool { return r.ProvenMisbehaviors > 0 }},
		{dcf, "33933fcebdd1578511e767b58490c9c38b9afb1a8e6bee25cf8b2241aff7e46a",
			func(r Result) bool { return r.TotalKbps > 0 }},
		{sharded, "162486d35055388accc873434fba9e7896aacb42ada0aca634c807af5784faa2",
			func(r Result) bool { return r.CorrectDiagnosisPct > 0 }},
		{churn, "287708cec28c948a2fa1fc22adde7a16f3bdc6efcbc9eebb25b4516c18da87f0",
			func(r Result) bool { return r.Restarts > 0 && r.FaultDrops > 0 }},
		{colluding, "e841af841230e324167d6197c7235f7998a39c54c2c870e2ee844719d2968b38",
			func(r Result) bool { return r.CollusionsDetected > 0 }},
	}
}

func TestResultExact(t *testing.T) {
	for _, c := range exactResultCases() {
		t.Run(c.s.Name, func(t *testing.T) {
			rs := make([]Result, 0, 2)
			for seed := uint64(1); seed <= 2; seed++ {
				r, err := Run(c.s, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !c.exercised(r) {
					t.Errorf("seed %d does not exercise the case: %+v", seed, r)
				}
				rs = append(rs, r)
			}
			data, err := json.Marshal(rs)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != c.digest {
				t.Errorf("digest %s, pinned %s — a Result changed:\n%s", got, c.digest, data)
			}
		})
	}
}
