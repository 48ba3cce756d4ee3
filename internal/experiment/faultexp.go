package experiment

import (
	"fmt"
	"math"

	"dcfguard/internal/faults"
)

// faultBurstRecovery is the Bad→Good recovery probability used for the
// burst column of ExtFaultTolerance: mean burst length 1/0.25 = 4 lost
// frames, long enough to swallow a whole RTS/CTS/DATA/ACK exchange.
const faultBurstRecovery = 0.25

func faultScenarioName(fer float64, burst bool) string {
	kind := "iid"
	if burst {
		kind = "burst"
	}
	return fmt.Sprintf("fault-fer%g-%s", math.Round(fer*100), kind)
}

// ExtFaultTolerance quantifies the detection scheme's fragility to
// imperfect channels: the false-diagnosis rate of *correct* senders as
// the frame-error rate grows over cfg.FERs, for i.i.d. losses and for a
// Gilbert burst chain with the same long-run rate. The network is an
// all-honest 8-sender CORRECT star, so every diagnosis is a false one
// and MisdiagnosisPct is exactly the scheme's false-accusation rate
// under channel error.
func ExtFaultTolerance(cfg Config) (*Table, error) {
	p := NewPlan(cfg)
	for _, fer := range cfg.FERs {
		for _, burst := range []bool{false, true} {
			s := cfg.base(faultScenarioName(fer, burst), false)
			s.Protocol = ProtocolCorrect
			if burst {
				if fer > 0 {
					ge := faults.GEForMeanFER(fer, faultBurstRecovery)
					s.Faults.Burst = &ge
				}
			} else {
				s.Faults.FER = fer
			}
			p.Add(s)
		}
	}
	out, err := p.Run()
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Extension: false diagnosis of correct senders vs frame-error rate",
		Columns: []string{"FER%",
			"iid misdiag%", "iid AVG Kbps", "iid drops",
			"burst misdiag%", "burst AVG Kbps", "burst drops"},
		Notes: []string{
			fmt.Sprintf("8 honest senders, CORRECT protocol, %d seeds, %v runs; burst = Gilbert chain, mean burst %g frames",
				len(cfg.Seeds), cfg.Duration, 1/faultBurstRecovery),
			"every diagnosis is false here: no sender misbehaves",
		},
	}
	for _, fer := range cfg.FERs {
		row := []string{fmt.Sprintf("%g", math.Round(fer*100))}
		for _, burst := range []bool{false, true} {
			results := out.NextResults()
			agg := AggregateResults(faultScenarioName(fer, burst), results)
			var drops uint64
			for _, r := range results {
				drops += r.FaultDrops
			}
			row = append(row,
				fmtCI(agg.MisdiagnosisPct.Mean, agg.MisdiagnosisPct.CI95),
				fmtF(agg.AvgHonestKbps.Mean),
				fmt.Sprintf("%d", drops/uint64(len(results))))
		}
		t.AddRow(row...)
	}
	return t, nil
}
