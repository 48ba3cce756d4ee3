package analytic

import (
	"fmt"
	"strconv"

	"dcfguard/internal/experiment"
)

// ValidateAgainstModel runs the honest saturated star at each network
// size under plain 802.11 and tabulates simulated per-node throughput
// against this package's analytical prediction. A healthy DCF substrate
// keeps the ratio near 1 at every size.
func ValidateAgainstModel(cfg experiment.Config) (*experiment.Table, error) {
	p := experiment.NewPlan(cfg.Seeds)
	for _, n := range cfg.NetworkSizes {
		s := experiment.DefaultScenario()
		s.Name = fmt.Sprintf("validate-%d", n)
		s.Duration = cfg.Duration
		s.Topo = experiment.StarTopo(n, false)
		s.Protocol = experiment.Protocol80211
		s.Channel = cfg.Channel
		p.Add(s)
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	t := &experiment.Table{
		Title: "Validation: simulated 802.11 saturation throughput vs Bianchi-style model (Kbps/node)",
		Columns: []string{"senders", "model", "simulated", "ratio",
			"model p(collision)"},
		Notes: []string{
			"honest zero-flow star, RTS/CTS on; model uses this simulator's exact frame timings",
		},
	}
	for _, n := range cfg.NetworkSizes {
		m := Model{N: n, MAC: experiment.DefaultScenario().MAC,
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
