package analytic_test

import (
	"fmt"
	"testing"

	"dcfguard/internal/analytic"
	"dcfguard/internal/experiment"
	"dcfguard/internal/sim"
)

// The checks against the simulator live in the external test package:
// the experiment package imports analytic for its validate table.

// TestSimulatorMatchesAnalyticalModel is the validation test DESIGN.md
// promises: the hand-rolled DCF simulator must track the Bianchi-style
// model within a modest tolerance across network sizes.
func TestSimulatorMatchesAnalyticalModel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation comparison skipped in -short mode")
	}
	for _, n := range []int{2, 4, 8, 16} {
		m := analytic.Model{N: n, MAC: experiment.DefaultScenario().MAC, PayloadBytes: 512, BitRate: 2_000_000}
		predicted := m.PerNodeKbps()

		s := experiment.DefaultScenario()
		s.Duration = 10 * sim.Second
		s.Topo = experiment.StarTopo(n, false)
		s.Protocol = experiment.Protocol80211
		r, err := experiment.Run(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		measured := r.AvgHonestKbps

		ratio := measured / predicted
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("n=%d: simulated %.1f Kbps/node vs model %.1f (ratio %.3f), want within 15%%",
				n, measured, predicted, ratio)
		}
	}
}

func TestValidateAgainstModelTable(t *testing.T) {
	cfg := experiment.QuickConfig()
	cfg.Duration = 3 * sim.Second
	cfg.Seeds = experiment.Seeds(2)
	cfg.NetworkSizes = []int{2, 8}
	tb, err := experiment.ValidateAgainstModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		var ratio float64
		if _, err := fmt.Sscanf(row[3], "%g", &ratio); err != nil {
			t.Fatalf("cell %q: %v", row[3], err)
		}
		if ratio < 0.8 || ratio > 1.2 {
			t.Fatalf("n=%s ratio %v outside sanity band", row[0], ratio)
		}
	}
}
