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

// FaultToleranceCells enumerates the ExtFaultTolerance sweep as
// journalable (scenario, seed) cells: an all-honest 8-sender CORRECT
// star, FER swept over cfg.FERs, each rate run twice — i.i.d. losses and
// a Gilbert burst chain with the same long-run rate. With no misbehaving
// sender every diagnosis is a false one, so MisdiagnosisPct is exactly
// the paper-scheme's false-accusation rate under channel error.
func FaultToleranceCells(cfg Config) []SweepCell {
	var cells []SweepCell
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
			for _, seed := range cfg.Seeds {
				cells = append(cells, SweepCell{Scenario: s, Seed: seed})
			}
		}
	}
	return cells
}

func faultScenarioName(fer float64, burst bool) string {
	kind := "iid"
	if burst {
		kind = "burst"
	}
	return fmt.Sprintf("fault-fer%g-%s", math.Round(fer*100), kind)
}

// ExtFaultTolerance quantifies the detection scheme's fragility to
// imperfect channels: the false-diagnosis rate of *correct* senders as
// the frame-error rate grows from 0 to 30 %, for i.i.d. and bursty
// losses. It runs as a resumable sweep — pass SweepOptions with a
// JournalDir to checkpoint cells, and a SeedTimeout to bound each run —
// and keeps going past failed cells: the table is built from the cells
// that completed, and the report carries the diagnostics for the rest.
func ExtFaultTolerance(cfg Config, opts SweepOptions) (*Table, *SweepReport, error) {
	cells := FaultToleranceCells(cfg)
	rep, err := runSweep(cells, opts)
	if err != nil {
		return nil, nil, err
	}
	report := &rep

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

	// Group completed cells back into per-scenario result sets. Failed
	// cells are skipped (their zero Results carry no scenario name).
	byName := make(map[string][]Result, 2*len(cfg.FERs))
	for _, r := range report.Results {
		if r.Scenario != "" {
			byName[r.Scenario] = append(byName[r.Scenario], r)
		}
	}
	for _, fer := range cfg.FERs {
		row := []string{fmt.Sprintf("%g", math.Round(fer*100))}
		for _, burst := range []bool{false, true} {
			results := byName[faultScenarioName(fer, burst)]
			if len(results) == 0 {
				row = append(row, "-", "-", "-")
				continue
			}
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
	return t, report, nil
}
