package experiment

import (
	"fmt"
	"sort"
	"strings"

	"dcfguard/internal/frame"
)

// RunAll executes the scenario once per seed on RunSweep's pool and
// returns the raw per-run results in seed order: the escape hatch for
// external analysis beyond the built-in aggregation.
func RunAll(s Scenario, seeds []uint64) ([]Result, error) {
	p := NewPlan(Config{Seeds: seeds})
	p.Add(s)
	out, err := p.Run()
	if err != nil {
		return nil, err
	}
	return out.NextResults(), nil
}

// ResultsCSV renders raw per-run results as CSV, one row per (run,
// metric-set), suitable for pandas/R style analysis.
func ResultsCSV(results []Result) string {
	var b strings.Builder
	b.WriteString("scenario,seed,duration_s,total_kbps,avg_honest_kbps,avg_misbehaver_kbps," +
		"avg_honest_delay_ms,avg_misbehaver_delay_ms,fairness," +
		"correct_diagnosis_pct,misdiagnosis_pct,proven_misbehaviors,greedy_detections,events\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%s,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%d,%d,%d\n",
			csvEscape(r.Scenario), r.Seed, r.Duration.Seconds(),
			r.TotalKbps, r.AvgHonestKbps, r.AvgMisbehaverKbps,
			r.AvgHonestDelayMs, r.AvgMisbehaverDelayMs, r.Fairness,
			r.CorrectDiagnosisPct, r.MisdiagnosisPct,
			r.ProvenMisbehaviors, r.GreedyDetections, r.EventsFired)
	}
	return b.String()
}

// PerSenderCSV renders the per-flow throughput breakdown of raw results.
func PerSenderCSV(results []Result) string {
	var b strings.Builder
	b.WriteString("scenario,seed,sender,throughput_kbps\n")
	for _, r := range results {
		ids := make([]int, 0, len(r.ThroughputBySender))
		for id := range r.ThroughputBySender {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(&b, "%s,%d,%d,%g\n",
				csvEscape(r.Scenario), r.Seed, id, r.ThroughputBySender[frame.NodeID(id)])
		}
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
