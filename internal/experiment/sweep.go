package experiment

import (
	"fmt"

	"dcfguard/internal/sim"
	"dcfguard/internal/stats"
)

// Aggregate holds multi-seed summaries of one scenario's metrics.
type Aggregate struct {
	Scenario string
	Runs     int

	CorrectDiagnosisPct  stats.Summary
	MisdiagnosisPct      stats.Summary
	AvgHonestKbps        stats.Summary
	AvgMisbehaverKbps    stats.Summary
	AvgHonestDelayMs     stats.Summary
	AvgMisbehaverDelayMs stats.Summary
	TotalKbps            stats.Summary
	Fairness             stats.Summary

	// Series is the packet-weighted per-bin diagnosis series pooled
	// across runs.
	Series []SeriesPoint

	ProvenMisbehaviors int
	GreedyDetections   int

	// EventsFired is the total kernel event count across runs, so the
	// figure generators can report events/op in the bench suite.
	EventsFired uint64
}

// Seeds returns the paper's seed convention: the same fixed set
// (1..n) for every data point.
func Seeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}

// RunSeeds executes the scenario once per seed on RunSweep's pool and
// aggregates the results in seed order.
func RunSeeds(s Scenario, seeds []uint64) (Aggregate, error) {
	results, err := RunAll(s, seeds)
	if err != nil {
		return Aggregate{}, err
	}
	return AggregateResults(s.Name, results), nil
}

// Plan is one figure's whole run list, built before anything runs:
// every point (one scenario per variant and x-axis value), each at
// every seed. Run hands the list to RunSweep's pool in one go, so the
// figure keeps every worker busy up to its last cell instead of
// waiting at each point for its slowest seed.
type Plan struct {
	seeds  []uint64
	sweep  SweepOptions
	points []Scenario
}

// NewPlan starts an empty plan whose points all run at cfg.Seeds, on a
// sweep configured by cfg.Sweep.
func NewPlan(cfg Config) *Plan { return &Plan{seeds: cfg.Seeds, sweep: cfg.Sweep} }

// Add appends a point. Point names key the sweep's cells, so every
// point of a plan needs its own.
func (p *Plan) Add(s Scenario) { p.points = append(p.points, s) }

// runSweep is the pool every plan runs on; tests swap it to inspect the cells a generator plans or to break one.
var runSweep = RunSweep

// Run executes every (point, seed) cell once and returns the points'
// results. A failed cell fails the plan with its *SeedFailure, the
// first in plan order. With a journal directory in the plan's sweep
// options, cells already journaled there are loaded, not rerun. Each run is a pure function of (scenario, seed),
// so the results match one serial run per cell.
//
// RunSweep rejects repeated (name, seed) keys, so a seed listed twice
// for one point runs again in a second sweep: every entry still gets a
// run of its own.
func (p *Plan) Run() (*Outcome, error) {
	out := &Outcome{points: p.points, results: make([][]Result, len(p.points))}
	if len(p.points) == 0 {
		return out, nil
	}
	if len(p.seeds) == 0 {
		return nil, fmt.Errorf("experiment: %s: no seeds", p.points[0].Name)
	}
	type ref struct{ point, seed int }
	var rounds [][]ref
	repeats := make(map[string]int)
	for i, s := range p.points {
		out.results[i] = make([]Result, len(p.seeds))
		for j, seed := range p.seeds {
			key := CellFileName(s.Name, seed)
			k := repeats[key]
			repeats[key]++
			if k == len(rounds) {
				rounds = append(rounds, nil)
			}
			rounds[k] = append(rounds[k], ref{i, j})
		}
	}
	for _, round := range rounds {
		cells := make([]SweepCell, len(round))
		for n, r := range round {
			cells[n] = SweepCell{Scenario: p.points[r.point], Seed: p.seeds[r.seed]}
		}
		rep, err := runSweep(cells, p.sweep)
		if err != nil {
			return nil, err
		}
		if !rep.OK() {
			return nil, rep.Failures[0]
		}
		for n, r := range round {
			out.results[r.point][r.seed] = rep.Results[n]
		}
	}
	return out, nil
}

// Outcome hands a plan's results back point by point, in the order the
// points were added.
type Outcome struct {
	points  []Scenario
	results [][]Result
}

// NextResults returns the next point's results in seed order.
func (o *Outcome) NextResults() []Result {
	r := o.results[0]
	o.points, o.results = o.points[1:], o.results[1:]
	return r
}

// Next aggregates the next point's results.
func (o *Outcome) Next() Aggregate {
	name := o.points[0].Name
	return AggregateResults(name, o.NextResults())
}

// AggregateResults folds raw per-seed results, in the order given, into
// one multi-seed Aggregate named name: what RunSeeds and every figure
// point compute, and what sweep drivers (macsim -journal, the serve
// daemon) apply to the results they load back.
func AggregateResults(name string, results []Result) Aggregate {
	agg := Aggregate{Scenario: name, Runs: len(results)}
	var correct, misdiag, honest, mis, hDelay, mDelay, total, fair stats.Welford

	// Pool series bins across runs, weighting by packet counts.
	type binAcc struct {
		weighted float64
		packets  int
		start    sim.Time
	}
	var bins []binAcc

	for _, r := range results {
		correct.Add(r.CorrectDiagnosisPct)
		misdiag.Add(r.MisdiagnosisPct)
		honest.Add(r.AvgHonestKbps)
		mis.Add(r.AvgMisbehaverKbps)
		hDelay.Add(r.AvgHonestDelayMs)
		mDelay.Add(r.AvgMisbehaverDelayMs)
		total.Add(r.TotalKbps)
		fair.Add(r.Fairness)
		agg.ProvenMisbehaviors += r.ProvenMisbehaviors
		agg.GreedyDetections += r.GreedyDetections
		agg.EventsFired += r.EventsFired
		for i, p := range r.Series {
			for len(bins) <= i {
				bins = append(bins, binAcc{start: p.Start})
			}
			bins[i].weighted += p.CorrectPct * float64(p.Packets)
			bins[i].packets += p.Packets
		}
	}
	agg.CorrectDiagnosisPct = correct.Summarize()
	agg.MisdiagnosisPct = misdiag.Summarize()
	agg.AvgHonestKbps = honest.Summarize()
	agg.AvgMisbehaverKbps = mis.Summarize()
	agg.AvgHonestDelayMs = hDelay.Summarize()
	agg.AvgMisbehaverDelayMs = mDelay.Summarize()
	agg.TotalKbps = total.Summarize()
	agg.Fairness = fair.Summarize()
	for _, b := range bins {
		p := SeriesPoint{Start: b.start, Packets: b.packets}
		if b.packets > 0 {
			p.CorrectPct = b.weighted / float64(b.packets)
		}
		agg.Series = append(agg.Series, p)
	}
	return agg
}
