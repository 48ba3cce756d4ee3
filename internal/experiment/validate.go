package experiment

import (
	"fmt"
	"strconv"

	"dcfguard/internal/analytic"
)

// ValidateAgainstModel runs the honest saturated star at each network
// size under plain 802.11 and tabulates simulated per-node throughput
// against the analytic package's Bianchi-style prediction. A healthy
// DCF substrate keeps the ratio near 1 at every size.
func ValidateAgainstModel(cfg Config) (*Table, error) {
	p := NewPlan(cfg)
	for _, n := range cfg.NetworkSizes {
		s := DefaultScenario()
		s.Name = fmt.Sprintf("validate-%d", n)
		s.Duration = cfg.Duration
		s.Topo = StarTopo(n, false)
		s.Protocol = Protocol80211
		s.Channel = cfg.Channel
		p.Add(s)
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Validation: simulated 802.11 saturation throughput vs Bianchi-style model (Kbps/node)",
		Columns: []string{"senders", "model", "simulated", "ratio",
			"model p(collision)"},
		Notes: []string{
			"honest zero-flow star, RTS/CTS on; model uses this simulator's exact frame timings",
		},
	}
	for _, n := range cfg.NetworkSizes {
		m := analytic.Model{N: n, MAC: DefaultScenario().MAC,
			PayloadBytes: 512, BitRate: 2_000_000}
		predicted := m.PerNodeKbps()
		measured := out.Next().AvgHonestKbps.Mean
		t.AddRow(strconv.Itoa(n),
			fmt.Sprintf("%.1f", predicted),
			fmt.Sprintf("%.1f", measured),
			fmt.Sprintf("%.3f", measured/predicted),
			fmt.Sprintf("%.3f", m.CollisionProbability()))
	}
	return t, nil
}
