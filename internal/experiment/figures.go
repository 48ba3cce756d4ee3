package experiment

import (
	"fmt"
	"strconv"

	"dcfguard/internal/core"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
	"dcfguard/internal/topo"
)

// rngFor derives the topology-generation stream for a run seed, kept
// separate from the run's own randomness so a protocol change never
// reshuffles node placement.
func rngFor(seed uint64) *rng.Source {
	return rng.New(seed).Stream("topology")
}

// Config scales the figure generators: the paper's full settings are
// DefaultConfig (50 s, 30 seeds); benchmarks use reduced settings.
type Config struct {
	// Duration of each run (paper: 50 s).
	Duration sim.Time
	// Seeds for every data point (paper: 30, identical across points).
	Seeds []uint64
	// PMs is the Percentage-of-Misbehavior sweep.
	PMs []int
	// NetworkSizes is the Figure-6/7 sender-count sweep.
	NetworkSizes []int
	// Fig8PMs are the Figure-8 misbehavior levels.
	Fig8PMs []int
	// FERs is the ExtFaultTolerance frame-error-rate sweep.
	FERs []float64
	// Channel selects the channel model for every generated scenario.
	// The default configs use ChannelV2; ChannelV1 (cmd/figures
	// -channel v1) reproduces tables recorded before the v2 default
	// flip byte-for-byte (DESIGN.md §10). Note the zero value reads as
	// ChannelV1 — construct configs via DefaultConfig/QuickConfig.
	Channel ChannelModel
}

// DefaultConfig reproduces the paper's settings.
func DefaultConfig() Config {
	return Config{
		Duration:     50 * sim.Second,
		Seeds:        Seeds(30),
		PMs:          []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		NetworkSizes: []int{1, 2, 4, 8, 16, 32, 64},
		Fig8PMs:      []int{40, 60, 80},
		FERs:         []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30},
		Channel:      ChannelV2,
	}
}

// QuickConfig is a reduced configuration for benchmarks and smoke runs.
func QuickConfig() Config {
	return Config{
		Duration:     5 * sim.Second,
		Seeds:        Seeds(3),
		PMs:          []int{0, 50, 100},
		NetworkSizes: []int{1, 4, 8},
		Fig8PMs:      []int{40, 80},
		FERs:         []float64{0, 0.15, 0.30},
		Channel:      ChannelV2,
	}
}

func (c Config) base(name string, twoFlow bool, mis ...int) Scenario {
	s := DefaultScenario()
	s.Name = name
	s.Duration = c.Duration
	s.Topo = StarTopo(8, twoFlow, mis...)
	s.Channel = c.Channel
	return s
}

// Fig4 reproduces Figure 4: diagnosis accuracy (correct diagnosis % and
// misdiagnosis %) versus PM for the ZERO-FLOW and TWO-FLOW scenarios,
// with node 3 of 8 misbehaving under the CORRECT protocol.
func Fig4(cfg Config) (*Table, error) {
	p := NewPlan(cfg.Seeds)
	for _, pm := range cfg.PMs {
		for _, twoFlow := range []bool{false, true} {
			s := cfg.base(fmt.Sprintf("fig4-%s-pm%d", flowName(twoFlow), pm), twoFlow, 3)
			s.Protocol = ProtocolCorrect
			s.PM = pm
			p.Add(s)
		}
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Figure 4: Diagnosis accuracy for varying magnitude of misbehavior",
		Columns: []string{"PM%",
			"zero-flow correct%", "zero-flow misdiag%",
			"two-flow correct%", "two-flow misdiag%"},
		Notes: []string{
			fmt.Sprintf("W=%d THRESH=%.0f alpha=%.1f, %d seeds, %v runs",
				core.DefaultParams().Window, core.DefaultParams().Thresh,
				core.DefaultParams().Alpha, len(cfg.Seeds), cfg.Duration),
		},
	}
	for _, pm := range cfg.PMs {
		row := []string{strconv.Itoa(pm)}
		for range 2 { // zero-flow, two-flow
			agg := out.Next()
			t.Events += agg.EventsFired
			row = append(row,
				fmtCI(agg.CorrectDiagnosisPct.Mean, agg.CorrectDiagnosisPct.CI95),
				fmtCI(agg.MisdiagnosisPct.Mean, agg.MisdiagnosisPct.CI95))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig5WithDelay runs the Figure-5 sweep once and renders two tables:
// the paper's throughput comparison, and this repo's extension table of
// per-packet MAC delays over the same runs (lower delay being the other
// selfish incentive §3.1 names).
func Fig5WithDelay(cfg Config) (*Table, *Table, error) {
	p := NewPlan(cfg.Seeds)
	for _, pm := range cfg.PMs {
		for _, proto := range []Protocol{Protocol80211, ProtocolCorrect} {
			s := cfg.base(fmt.Sprintf("fig5-%s-pm%d", proto, pm), false, 3)
			s.Protocol = proto
			s.PM = pm
			p.Add(s)
		}
	}
	out, err := p.Run()
	if err != nil {
		return nil, nil, err
	}

	t5 := &Table{
		Title: "Figure 5: Throughput comparison between IEEE 802.11 and proposed scheme (Kbps)",
		Columns: []string{"PM%",
			"802.11 MSB", "802.11 AVG", "CORRECT MSB", "CORRECT AVG"},
		Notes: []string{
			fmt.Sprintf("8 senders, node 3 misbehaving; penalty factor %.2f",
				core.DefaultParams().PenaltyFactor),
		},
	}
	tD := &Table{
		Title: "Extension: per-packet MAC delay under misbehavior (ms)",
		Columns: []string{"PM%",
			"802.11 MSB", "802.11 AVG", "CORRECT MSB", "CORRECT AVG"},
		Notes: []string{"same runs as Figure 5; delay = enqueue → ACK"},
	}
	for _, pm := range cfg.PMs {
		row5 := []string{strconv.Itoa(pm)}
		rowD := []string{strconv.Itoa(pm)}
		for range 2 { // 802.11, CORRECT
			agg := out.Next()
			t5.Events += agg.EventsFired
			tD.Events = t5.Events // same runs
			row5 = append(row5,
				fmtCI(agg.AvgMisbehaverKbps.Mean, agg.AvgMisbehaverKbps.CI95),
				fmtCI(agg.AvgHonestKbps.Mean, agg.AvgHonestKbps.CI95))
			rowD = append(rowD,
				fmtF(agg.AvgMisbehaverDelayMs.Mean),
				fmtF(agg.AvgHonestDelayMs.Mean))
		}
		t5.AddRow(row5...)
		tD.AddRow(rowD...)
	}
	return t5, tD, nil
}

// Fig5 reproduces Figure 5: throughput of the misbehaving node (MSB)
// and the average well-behaved node (AVG) versus PM, under 802.11 and
// under the CORRECT scheme (ZERO-FLOW star, node 3 misbehaving).
func Fig5(cfg Config) (*Table, error) {
	t5, _, err := Fig5WithDelay(cfg)
	return t5, err
}

// Fig6And7 runs the no-misbehavior network-size sweep once and renders
// both Figure 6 (average per-node throughput) and Figure 7 (Jain's
// fairness index) from it: 802.11 versus CORRECT under ZERO-FLOW and
// TWO-FLOW, with N honest senders.
func Fig6And7(cfg Config) (*Table, *Table, error) {
	p := NewPlan(cfg.Seeds)
	for _, n := range cfg.NetworkSizes {
		for _, twoFlow := range []bool{false, true} {
			for _, proto := range []Protocol{Protocol80211, ProtocolCorrect} {
				s := cfg.base(fmt.Sprintf("fig6+7-%s-%s-%d", flowName(twoFlow), proto, n), twoFlow)
				s.Topo = StarTopo(n, twoFlow)
				s.Protocol = proto
				p.Add(s)
			}
		}
	}
	out, err := p.Run()
	if err != nil {
		return nil, nil, err
	}

	cols := []string{"senders",
		"zero 802.11", "zero CORRECT", "two 802.11", "two CORRECT"}
	t6 := &Table{
		Title:   "Figure 6: Throughput comparison without misbehavior for varying network sizes (Kbps/node)",
		Columns: cols,
	}
	t7 := &Table{
		Title:   "Figure 7: Comparison of fairness index between IEEE 802.11 and proposed scheme",
		Columns: cols,
	}
	for _, n := range cfg.NetworkSizes {
		row6 := []string{strconv.Itoa(n)}
		row7 := []string{strconv.Itoa(n)}
		for range 4 { // {zero, two}-flow × {802.11, CORRECT}
			agg := out.Next()
			t6.Events += agg.EventsFired
			t7.Events = t6.Events // same runs
			row6 = append(row6, fmtCI(agg.AvgHonestKbps.Mean, agg.AvgHonestKbps.CI95))
			row7 = append(row7, fmtF3(agg.Fairness.Mean))
		}
		t6.AddRow(row6...)
		t7.AddRow(row7...)
	}
	return t6, t7, nil
}

// Fig6 reproduces Figure 6 alone (see Fig6And7).
func Fig6(cfg Config) (*Table, error) {
	t6, _, err := Fig6And7(cfg)
	return t6, err
}

// Fig7 reproduces Figure 7 alone (see Fig6And7).
func Fig7(cfg Config) (*Table, error) {
	_, t7, err := Fig6And7(cfg)
	return t7, err
}

// Fig8 reproduces Figure 8: correct-diagnosis percentage over time
// (1-second bins) in the TWO-FLOW scenario for several PM levels.
func Fig8(cfg Config) (*Table, error) {
	cols := []string{"t (s)"}
	for _, pm := range cfg.Fig8PMs {
		cols = append(cols, fmt.Sprintf("PM=%d%% correct%%", pm))
	}
	t := &Table{
		Title:   "Figure 8: Responsiveness of misbehavior diagnosis (two-flow)",
		Columns: cols,
	}
	p := NewPlan(cfg.Seeds)
	for _, pm := range cfg.Fig8PMs {
		s := cfg.base(fmt.Sprintf("fig8-pm%d", pm), true, 3)
		s.Protocol = ProtocolCorrect
		s.PM = pm
		s.BinSize = sim.Second
		p.Add(s)
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}
	var series [][]float64
	var maxBins int
	for range cfg.Fig8PMs {
		agg := out.Next()
		t.Events += agg.EventsFired
		vals := make([]float64, len(agg.Series))
		for i, p := range agg.Series {
			vals[i] = p.CorrectPct
		}
		if len(vals) > maxBins {
			maxBins = len(vals)
		}
		series = append(series, vals)
	}
	for bin := 0; bin < maxBins; bin++ {
		row := []string{strconv.Itoa(bin)}
		for _, vals := range series {
			if bin < len(vals) {
				row = append(row, fmtF(vals[bin]))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// RandomTopo returns the Figure-9 topology builder: 40 nodes in
// 1500 m × 700 m, 5 random misbehavers, regenerated per seed so the 30
// runs cover 30 different random topologies.
func RandomTopo(nodes, nMis int) func(uint64) *topo.Topology {
	return func(seed uint64) *topo.Topology {
		src := rngFor(seed)
		return topo.Random(nodes, 1500, 700, 200, nMis, src)
	}
}

// ScaledRandomTopo returns large sparse random topologies: a 700 m tall
// corridor that widens by 150 m² of area per node (like a mesh deployed
// along a road), giving ≈160 m mean nearest-neighbor spacing. The
// Figure-9 density (≈38 nodes/km²) would not scale this way — at that
// density a hundreds-of-nodes arena is one huge carrier-sense domain
// where contention, not channel fan-out, dominates; the sparse corridor
// keeps most traffic local (≈85 % of nearest neighbors inside the 250 m
// receive range) while the network genuinely spreads out, which is the
// regime the v2 spatial index targets. The RunRandom200/RunRandom400
// bench scenarios build on it.
func ScaledRandomTopo(nodes, nMis int) func(uint64) *topo.Topology {
	width := 150 * float64(nodes)
	return func(seed uint64) *topo.Topology {
		return topo.Random(nodes, width, 700, 200, nMis, rngFor(seed))
	}
}

// Fig9 reproduces Figure 9: protocol performance over random
// topologies — (a) diagnosis accuracy and (b) throughput, versus PM.
func Fig9(cfg Config) (*Table, error) {
	p := NewPlan(cfg.Seeds)
	for _, pm := range cfg.PMs {
		// (a) Diagnosis under CORRECT; (b) throughput under both protocols.
		s := DefaultScenario()
		s.Name = fmt.Sprintf("fig9-correct-pm%d", pm)
		s.Duration = cfg.Duration
		s.Topo = RandomTopo(40, 5)
		s.Protocol = ProtocolCorrect
		s.PM = pm
		s.Channel = cfg.Channel
		p.Add(s)
		s.Name = fmt.Sprintf("fig9-80211-pm%d", pm)
		s.Protocol = Protocol80211
		p.Add(s)
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Figure 9: Protocol performance for random topology (40 nodes, 1500m x 700m, 5 misbehaving)",
		Columns: []string{"PM%",
			"correct%", "misdiag%",
			"802.11 MSB", "802.11 AVG", "CORRECT MSB", "CORRECT AVG"},
	}
	for _, pm := range cfg.PMs {
		row := []string{strconv.Itoa(pm)}
		aggC := out.Next()
		agg80 := out.Next()
		t.Events += aggC.EventsFired + agg80.EventsFired
		row = append(row,
			fmtCI(aggC.CorrectDiagnosisPct.Mean, aggC.CorrectDiagnosisPct.CI95),
			fmtCI(aggC.MisdiagnosisPct.Mean, aggC.MisdiagnosisPct.CI95),
			fmtCI(agg80.AvgMisbehaverKbps.Mean, agg80.AvgMisbehaverKbps.CI95),
			fmtCI(agg80.AvgHonestKbps.Mean, agg80.AvgHonestKbps.CI95),
			fmtCI(aggC.AvgMisbehaverKbps.Mean, aggC.AvgMisbehaverKbps.CI95),
			fmtCI(aggC.AvgHonestKbps.Mean, aggC.AvgHonestKbps.CI95))
		t.AddRow(row...)
	}
	return t, nil
}

func flowName(twoFlow bool) string {
	if twoFlow {
		return "two-flow"
	}
	return "zero-flow"
}
