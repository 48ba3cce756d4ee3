package experiment

import (
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/sim"
	"dcfguard/internal/topo"
)

// Long-run determinism goldens. Every other golden runs for at most
// 2 s, which equals core.DefaultParams().HistoryHorizon, so none of them
// ever prunes the monitor's or the watchdog's idle history. These runs
// last five horizons, so pruning and the bounded diagnosis and
// collusion windows all cycle many times. The checksums were captured
// from the linear-scan IdleObserver and must never be updated to "make
// the test pass".

// goldenScenariosLongRun returns the monitored PM-80 star, and a
// receiver pair whose node 1 colludes with misbehaving sender 3 under a
// third-party watchdog, both on channel v2 for 10 s.
func goldenScenariosLongRun() []Scenario {
	starCorrect := DefaultScenario()
	starCorrect.Name = "star-correct-v2-10s"
	starCorrect.Protocol = ProtocolCorrect
	starCorrect.PM = 80
	starCorrect.Duration = 10 * sim.Second

	colluding := DefaultScenario()
	colluding.Name = "colluding-watchdog-v2-10s"
	colluding.Protocol = ProtocolCorrect
	colluding.PM = 100
	colluding.Duration = 10 * sim.Second
	colluding.ColludingReceivers = []frame.NodeID{1}
	colluding.Watchdog = true
	pair := receiverPairTopo()
	colluding.Topo = func(seed uint64) *topo.Topology {
		tp := pair(seed)
		tp.Misbehaving = []frame.NodeID{3}
		return tp
	}

	return []Scenario{starCorrect, colluding}
}

var goldenChecksumsLongRun = map[string][3]uint64{
	"star-correct-v2-10s":       {0x95aa3a73f75db6a9, 0x87d6fdd90ac0259e, 0x1e0631ccf85b170},
	"colluding-watchdog-v2-10s": {0x13417324a706e3e6, 0xa17f9e8f0c6c7639, 0xb9e693ea83c03044},
}

func TestDeterminismGoldenLongRun(t *testing.T) {
	for _, s := range goldenScenariosLongRun() {
		want, ok := goldenChecksumsLongRun[s.Name]
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
				t.Errorf("%s seed %d: checksum %#x, golden %#x — a change perturbed the idle history, the diagnosis window or the collusion window",
					s.Name, seed, got, want[seed-1])
			}
		}
	}
}
