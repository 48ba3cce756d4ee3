package experiment

import (
	"fmt"
	"strconv"

	"dcfguard/internal/core"
	"dcfguard/internal/frame"
	"dcfguard/internal/phys"
	"dcfguard/internal/stats"
	"dcfguard/internal/topo"
)

// AblationPenaltyFactor quantifies the design choice DESIGN.md calls
// out: the "additional penalty" multiplier on the measured deviation.
// Factor 1.0 is pure D (no extra penalty, the naive reading of §4.2);
// larger factors hold aggressive misbehavers closer to their fair share
// at the cost of harsher treatment of borderline senders.
func AblationPenaltyFactor(cfg Config, factors []float64) (*Table, error) {
	p := NewPlan(cfg.Seeds)
	for _, pm := range cfg.PMs {
		for _, f := range factors {
			s := cfg.base(fmt.Sprintf("a1-f%.2f-pm%d", f, pm), false, 3)
			s.Protocol = ProtocolCorrect
			s.PM = pm
			s.Core.PenaltyFactor = f
			p.Add(s)
		}
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	cols := []string{"PM%"}
	for _, f := range factors {
		cols = append(cols, fmt.Sprintf("MSB f=%.2f", f), fmt.Sprintf("AVG f=%.2f", f))
	}
	t := &Table{
		Title:   "Ablation A1: penalty factor vs misbehaver containment (Kbps)",
		Columns: cols,
	}
	for _, pm := range cfg.PMs {
		row := []string{strconv.Itoa(pm)}
		for range factors {
			agg := out.Next()
			row = append(row, fmtF(agg.AvgMisbehaverKbps.Mean), fmtF(agg.AvgHonestKbps.Mean))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationAlpha sweeps the deviation tolerance α (§4.1): smaller α lets
// misbehavers elude the correction scheme; α = 1 flags every slot of
// shortfall including measurement noise.
func AblationAlpha(cfg Config, alphas []float64) (*Table, error) {
	p := NewPlan(cfg.Seeds)
	for _, pm := range cfg.PMs {
		for _, a := range alphas {
			s := cfg.base(fmt.Sprintf("a2-alpha%.1f-pm%d", a, pm), true, 3)
			s.Protocol = ProtocolCorrect
			s.PM = pm
			s.Core.Alpha = a
			p.Add(s)
		}
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	cols := []string{"PM%"}
	for _, a := range alphas {
		cols = append(cols, fmt.Sprintf("correct%% α=%.1f", a), fmt.Sprintf("misdiag%% α=%.1f", a))
	}
	t := &Table{
		Title:   "Ablation A2: alpha sensitivity (two-flow diagnosis accuracy)",
		Columns: cols,
	}
	for _, pm := range cfg.PMs {
		row := []string{strconv.Itoa(pm)}
		for range alphas {
			agg := out.Next()
			row = append(row, fmtF(agg.CorrectDiagnosisPct.Mean), fmtF(agg.MisdiagnosisPct.Mean))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// WindowPoint is one (W, THRESH) configuration for AblationWindow.
type WindowPoint struct {
	W      int
	Thresh float64
}

// AblationWindow sweeps the diagnosis parameters W and THRESH (§4.3):
// the correct-diagnosis / misdiagnosis trade-off the paper discusses.
func AblationWindow(cfg Config, points []WindowPoint) (*Table, error) {
	p := NewPlan(cfg.Seeds)
	for _, pm := range cfg.PMs {
		for _, w := range points {
			s := cfg.base(fmt.Sprintf("a3-w%d-t%.0f-pm%d", w.W, w.Thresh, pm), true, 3)
			s.Protocol = ProtocolCorrect
			s.PM = pm
			s.Core.Window = w.W
			s.Core.Thresh = w.Thresh
			p.Add(s)
		}
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	cols := []string{"PM%"}
	for _, w := range points {
		cols = append(cols,
			fmt.Sprintf("correct%% W=%d T=%.0f", w.W, w.Thresh),
			fmt.Sprintf("misdiag%% W=%d T=%.0f", w.W, w.Thresh))
	}
	t := &Table{
		Title:   "Ablation A3: diagnosis window W and THRESH (two-flow)",
		Columns: cols,
	}
	for _, pm := range cfg.PMs {
		row := []string{strconv.Itoa(pm)}
		for range points {
			agg := out.Next()
			row = append(row, fmtF(agg.CorrectDiagnosisPct.Mean), fmtF(agg.MisdiagnosisPct.Mean))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationAttemptVerification pits the attempt-lying misbehaver against
// the §4.1 verification extension: without verification the liar's
// retry backoffs are under-estimated (B_exp too small, negative diffs),
// so it escapes penalties; with verification the intentional-drop check
// proves misbehavior outright.
func AblationAttemptVerification(cfg Config) (*Table, error) {
	p := NewPlan(cfg.Seeds)
	for _, verify := range []bool{false, true} {
		for _, pm := range cfg.PMs {
			if pm == 0 {
				continue // an honest "liar" is a contradiction
			}
			s := cfg.base(fmt.Sprintf("a4-verify%t-pm%d", verify, pm), false, 3)
			s.Protocol = ProtocolCorrect
			s.Strategy = StrategyAttemptLiar
			s.PM = pm
			s.Core.VerifyAttempts = verify
			s.Core.VerifyDropProb = 0.05
			p.Add(s)
		}
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Ablation A4: attempt-number verification vs attempt-lying misbehaver",
		Columns: []string{"verification", "PM%", "MSB Kbps", "AVG Kbps",
			"correct%", "proofs/run"},
	}
	for _, verify := range []bool{false, true} {
		for _, pm := range cfg.PMs {
			if pm == 0 {
				continue
			}
			agg := out.Next()
			t.AddRow(boolCell(verify), strconv.Itoa(pm),
				fmtF(agg.AvgMisbehaverKbps.Mean), fmtF(agg.AvgHonestKbps.Mean),
				fmtF(agg.CorrectDiagnosisPct.Mean),
				fmtF(float64(agg.ProvenMisbehaviors)/float64(agg.Runs)))
		}
	}
	return t, nil
}

// AblationReceiverMisbehavior studies §4.4's greedy receiver: two
// competing flows to two different receivers, one of which assigns zero
// base backoff to pull its own flow's data faster at the honest flow's
// expense. The sender-side G audit clamps the greedy assignments and
// restores fairness.
func AblationReceiverMisbehavior(cfg Config) (*Table, error) {
	p := NewPlan(cfg.Seeds)
	for _, greedyRecv := range []bool{false, true} {
		for _, audit := range []bool{false, true} {
			s := DefaultScenario()
			s.Name = fmt.Sprintf("a5-greedy%t-audit%t", greedyRecv, audit)
			s.Duration = cfg.Duration
			s.Channel = cfg.Channel
			s.Topo = receiverPairTopo()
			s.Protocol = ProtocolCorrect
			s.VerifyReceiverAtSenders = audit
			s.Core.AssignMode = core.AssignVerifiable
			if greedyRecv {
				s.GreedyReceivers = []frame.NodeID{1}
			}
			p.Add(s)
		}
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Ablation A5: greedy receiver vs sender-side G verification",
		Columns: []string{"receiver", "sender audit",
			"honest-flow Kbps", "greedy-flow Kbps", "fairness", "detections/run"},
		Notes: []string{
			"two flows: sender 2 → honest receiver 0, sender 3 → receiver 1 (greedy in rows 3-4)",
		},
	}
	for _, greedyRecv := range []bool{false, true} {
		for _, audit := range []bool{false, true} {
			// Results come back in seed order, so the Welford
			// accumulation below stays deterministic.
			var honestFlow, greedyFlow, fair stats.Welford
			detections := 0
			for _, r := range out.NextResults() {
				honestFlow.Add(r.ThroughputBySender[2])
				greedyFlow.Add(r.ThroughputBySender[3])
				fair.Add(r.Fairness)
				detections += r.GreedyDetections
			}
			recv := "honest(G)"
			if greedyRecv {
				recv = "greedy(0)"
			}
			t.AddRow(recv, boolCell(audit),
				fmtF(honestFlow.Mean()), fmtF(greedyFlow.Mean()),
				fmtF3(fair.Mean()),
				fmtF(float64(detections)/float64(len(cfg.Seeds))))
		}
	}
	return t, nil
}

// AblationBasicAccess (A7) runs the scheme without the RTS/CTS
// handshake (the paper's footnote 2): DATA frames carry the attempt
// number, assignments ride only on ACKs, and the blocking response is
// ACK suppression. Detection quality and containment should track the
// RTS/CTS numbers closely in a single-cell topology.
func AblationBasicAccess(cfg Config) (*Table, error) {
	p := NewPlan(cfg.Seeds)
	for _, basic := range []bool{false, true} {
		for _, pm := range cfg.PMs {
			s := cfg.base(fmt.Sprintf("a7-basic%t-pm%d", basic, pm), false, 3)
			s.Protocol = ProtocolCorrect
			s.PM = pm
			s.MAC.BasicAccess = basic
			p.Add(s)
		}
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Ablation A7: RTS/CTS vs basic access (zero-flow, node 3 misbehaving)",
		Columns: []string{"access", "PM%", "MSB Kbps", "AVG Kbps",
			"correct%", "misdiag%"},
	}
	for _, basic := range []bool{false, true} {
		for _, pm := range cfg.PMs {
			agg := out.Next()
			mode := "rts/cts"
			if basic {
				mode = "basic"
			}
			t.AddRow(mode, strconv.Itoa(pm),
				fmtF(agg.AvgMisbehaverKbps.Mean), fmtF(agg.AvgHonestKbps.Mean),
				fmtF(agg.CorrectDiagnosisPct.Mean), fmtF(agg.MisdiagnosisPct.Mean))
		}
	}
	return t, nil
}

// AblationAdaptiveThresh (A6) evaluates the adaptive THRESH selection
// the paper defers to future work: the monitor learns the channel's
// honest window-sum distribution and places the threshold at the Tukey
// fence. The trade the static THRESH=20 makes (misdiagnosis in noisy
// channels, missed mild misbehavior in clean ones) should narrow on
// both sides.
func AblationAdaptiveThresh(cfg Config) (*Table, error) {
	p := NewPlan(cfg.Seeds)
	for _, twoFlow := range []bool{false, true} {
		for _, pm := range cfg.PMs {
			for _, adaptive := range []bool{false, true} {
				s := cfg.base(fmt.Sprintf("a6-%s-adaptive%t-pm%d", flowName(twoFlow), adaptive, pm), twoFlow, 3)
				s.Protocol = ProtocolCorrect
				s.PM = pm
				s.Core.AdaptiveThresh = adaptive
				p.Add(s)
			}
		}
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Ablation A6: adaptive THRESH (Tukey fence) vs static THRESH=20",
		Columns: []string{"scenario", "PM%",
			"static correct%", "static misdiag%",
			"adaptive correct%", "adaptive misdiag%"},
	}
	for _, twoFlow := range []bool{false, true} {
		for _, pm := range cfg.PMs {
			row := []string{flowName(twoFlow), strconv.Itoa(pm)}
			for range 2 { // static, adaptive
				agg := out.Next()
				row = append(row, fmtF(agg.CorrectDiagnosisPct.Mean), fmtF(agg.MisdiagnosisPct.Mean))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// ExtHiddenTerminal contrasts basic access with RTS/CTS under hidden
// terminals — the configuration footnote 2 glosses over. Two senders
// 400 m apart (outside each other's shortened 300 m carrier-sense
// range) feed one receiver between them: without the handshake their
// DATA frames collide wholesale; with it only the short RTSes do.
func ExtHiddenTerminal(cfg Config) (*Table, error) {
	p := NewPlan(cfg.Seeds)
	for _, basic := range []bool{true, false} {
		s := DefaultScenario()
		s.Name = fmt.Sprintf("hidden-basic%t", basic)
		s.Duration = cfg.Duration
		s.Channel = cfg.Channel
		s.Protocol = Protocol80211
		s.MAC.BasicAccess = basic
		s.CsRangeM = 300
		s.Topo = func(uint64) *topo.Topology {
			return &topo.Topology{
				Positions: []phys.Point{{X: 200}, {X: 0}, {X: 400}},
				Flows:     []topo.Flow{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}},
				Measured:  []frame.NodeID{1, 2},
				Receivers: []frame.NodeID{0},
			}
		}
		p.Add(s)
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Extension: hidden terminals — basic access vs RTS/CTS (CS range 300 m)",
		Columns: []string{"access", "total Kbps", "fairness",
			"avg delay ms"},
		Notes: []string{"S1(0) → R(200) ← S2(400); senders mutually hidden"},
	}
	for _, mode := range []string{"basic", "rts/cts"} {
		agg := out.Next()
		t.AddRow(mode, fmtF(agg.TotalKbps.Mean), fmtF3(agg.Fairness.Mean),
			fmtF(agg.AvgHonestDelayMs.Mean))
	}
	return t, nil
}

// receiverPairTopo builds the A5 topology: receivers 0 and 1, senders
// 2 → 0 and 3 → 1, all mutually in range.
func receiverPairTopo() func(uint64) *topo.Topology {
	return func(uint64) *topo.Topology {
		return &topo.Topology{
			Positions: []phys.Point{
				{X: 0, Y: 0}, {X: 120, Y: 0}, {X: 0, Y: 100}, {X: 120, Y: 100},
			},
			Flows:     []topo.Flow{{Src: 2, Dst: 0}, {Src: 3, Dst: 1}},
			Measured:  []frame.NodeID{2, 3},
			Receivers: []frame.NodeID{0, 1},
		}
	}
}

func boolCell(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
