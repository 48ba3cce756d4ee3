// Command macsim runs a single simulation scenario and prints its
// metrics: the interactive entry point for exploring the protocol.
//
// Examples:
//
//	macsim -protocol correct -pm 80
//	macsim -protocol 802.11 -pm 80 -two-flow
//	macsim -random 40 -mis 5 -pm 60 -seeds 5
//	macsim -protocol correct -pm 80 -series
//	macsim -protocol correct -pm 80 -explain 3   # why was sender 3 diagnosed?
//
// Profiling a run (written when the run completes):
//
//	macsim -random 40 -pm 80 -cpuprofile cpu.pprof -memprofile mem.pprof
//	macsim -protocol correct -trace exec.trace
//
// The bench subcommand, which takes no flags, re-records ./BENCH.json:
// the baselines the machine-local guards read (`make bench-record`).
// Per-workload timing is `go test -bench`'s job:
//
//	macsim bench
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"time"

	"dcfguard"
	"dcfguard/internal/atomicio"
	"dcfguard/internal/experiment"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		if err := runBench(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "macsim bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "macsim:", err)
		os.Exit(1)
	}
}

// startProfiling arms the requested profilers and returns a stop
// function that flushes them. Empty paths disable the corresponding
// profiler.
func startProfiling(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var stops []func() error
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() error {
			trace.Stop()
			return f.Close()
		})
	}
	if memPath != "" {
		stops = append(stops, func() error {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialise the final live heap
			return pprof.WriteHeapProfile(f)
		})
	}
	return func() error {
		var first error
		for _, s := range stops {
			if err := s(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// cli is one parsed macsim command line: the scenario knobs that
// scenarioSpec maps onto the wire spec, the run shape, and the flags
// that only one mode (local or -submit) reads.
type cli struct {
	protocol, strategy, channel string
	pm, senders, misNode        int
	twoFlow                     bool
	random, mis                 int
	scaled                      bool
	duration                    time.Duration
	shards, timeline            int
	series                      bool
	fer                         float64
	burst, churn                string
	basic, adaptive, block      bool

	seed    uint64
	seeds   int
	csvPath string

	perNode                  bool
	pcapPath, journal        string
	seedTO                   time.Duration
	cpuProf, memProf, execTr string
	obs                      obsFlags

	submit, job, tenant string
}

// localOnlyFlags are read only by a local run; -submit refuses them
// rather than ignoring them. submitOnlyFlags are the converse.
// singleRunFlags print or write one run's frames or senders, so a
// local -seeds sweep refuses them.
var (
	localOnlyFlags = []string{"timeline", "pcap", "series", "per-node", "journal", "seedtimeout",
		"metrics", "trace-events", "trace-out", "diag-csv", "explain", "explain-json", "progress", "debug-addr",
		"cpuprofile", "memprofile", "trace"}
	submitOnlyFlags = []string{"job", "tenant"}
	singleRunFlags  = []string{"timeline", "pcap", "per-node"}
)

// parseCLI parses macsim's flags and rejects combinations that one of
// the two modes would otherwise silently ignore.
func parseCLI(args []string) (*cli, error) {
	c := &cli{}
	fs := flag.NewFlagSet("macsim", flag.ContinueOnError)
	fs.StringVar(&c.protocol, "protocol", "correct", "MAC protocol: 802.11 or correct")
	fs.IntVar(&c.pm, "pm", 0, "percentage of misbehavior (0-100)")
	fs.StringVar(&c.strategy, "strategy", "partial", "misbehavior strategy: partial, quarter, nodouble, liar (or the spec names quarter-window, no-doubling, attempt-liar)")
	fs.IntVar(&c.senders, "senders", 8, "number of senders in the star topology")
	fs.BoolVar(&c.twoFlow, "two-flow", false, "enable the TWO-FLOW interferer flows")
	fs.IntVar(&c.misNode, "mis-node", 3, "misbehaving sender id in the star (0 disables)")
	fs.IntVar(&c.random, "random", 0, "use a random topology with this many nodes instead of the star")
	fs.IntVar(&c.mis, "mis", 5, "number of misbehaving nodes in the random topology")
	fs.DurationVar(&c.duration, "duration", 50*time.Second, "simulated duration")
	fs.Uint64Var(&c.seed, "seed", 1, "run seed (single run)")
	fs.IntVar(&c.seeds, "seeds", 0, "run this many seeds (1..n) and aggregate instead of one run")
	fs.BoolVar(&c.series, "series", false, "print the per-second diagnosis series")
	fs.BoolVar(&c.perNode, "per-node", false, "print per-sender throughputs")
	fs.IntVar(&c.timeline, "timeline", 0, "print the first N frame transmissions as a timeline")
	fs.StringVar(&c.pcapPath, "pcap", "", "write the traced frames to this pcap file (requires -timeline)")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProf, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&c.execTr, "trace", "", "write a Go execution trace to this file")
	fs.StringVar(&c.csvPath, "csv", "", "write raw per-run metrics (one row per seed) to this CSV file")
	fs.StringVar(&c.channel, "channel", "v2", "channel model: v2 (counter RNG + spatial index, default) or v3 (v2 + propagation delay; required for -shards)")
	fs.IntVar(&c.shards, "shards", 1, "partition the nodes onto this many parallel schedulers (requires -channel v3; 1 = serial)")
	fs.BoolVar(&c.scaled, "scaled", false, "with -random: scale the arena with node count (constant density) instead of the fixed Figure-9 area")
	fs.Float64Var(&c.fer, "fer", 0, "i.i.d. frame-error rate in [0,1) injected after collision resolution")
	fs.StringVar(&c.burst, "burst", "", "Gilbert burst losses 'fer,r': mean FER and Bad→Good recovery prob (replaces -fer)")
	fs.StringVar(&c.churn, "churn", "", "receiver churn 'mean[,down]': mean up-time and downtime durations, e.g. 5s,200ms")
	fs.DurationVar(&c.seedTO, "seedtimeout", 0, "wall-time budget per seed; a hung run is cancelled and reported (0 disables)")
	fs.StringVar(&c.journal, "journal", "", "with -seeds: checkpoint finished (scenario, seed) cells in this directory and resume from it")
	fs.BoolVar(&c.basic, "basic", false, "basic access: no RTS/CTS handshake")
	fs.BoolVar(&c.adaptive, "adaptive", false, "adaptive THRESH selection (CORRECT only)")
	fs.BoolVar(&c.block, "block", false, "refuse service to diagnosed senders (CORRECT only)")
	fs.StringVar(&c.submit, "submit", "", "submit this run to a dcfserved daemon at this base URL instead of running locally")
	fs.StringVar(&c.job, "job", "", "with -submit: job name (default derived from the scenario name and -pm)")
	fs.StringVar(&c.tenant, "tenant", "", "with -submit: tenant bucket for the daemon's fair scheduler")
	c.obs.register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	// set lists which of names the command line set, as flags.
	set := func(names []string) (bad []string) {
		fs.Visit(func(f *flag.Flag) {
			for _, name := range names {
				if f.Name == name {
					bad = append(bad, "-"+name)
				}
			}
		})
		return bad
	}
	wrongMode := localOnlyFlags
	if c.submit == "" {
		wrongMode = submitOnlyFlags
	}
	bad := set(wrongMode)
	var oneRun []string
	if c.seeds > 0 {
		oneRun = set(singleRunFlags)
	}
	switch {
	case len(bad) > 0 && c.submit != "":
		return nil, fmt.Errorf("-submit runs on the daemon, which does not read %s", strings.Join(bad, ", "))
	case len(bad) > 0:
		return nil, fmt.Errorf("%s require -submit", strings.Join(bad, ", "))
	case len(oneRun) > 0:
		return nil, fmt.Errorf("%s cannot be combined with -seeds (they print one run); use a single -seed run", strings.Join(oneRun, ", "))
	case c.pcapPath != "" && c.timeline == 0:
		return nil, fmt.Errorf("-pcap requires -timeline N")
	case c.journal != "" && c.seeds == 0:
		return nil, fmt.Errorf("-journal requires -seeds")
	case c.misNode < 0:
		return nil, fmt.Errorf("-mis-node %d: want a sender id, or 0 for none", c.misNode)
	case c.seeds < 0:
		return nil, fmt.Errorf("-seeds %d: want a seed count, or 0 for one run", c.seeds)
	}
	return c, nil
}

// strategyAliases are macsim's short spellings of the spec's strategy
// names; the spec names themselves are accepted as-is.
var strategyAliases = map[string]string{
	"quarter":  "quarter-window",
	"nodouble": "no-doubling",
	"liar":     "attempt-liar",
}

// scenarioSpec maps the flags onto the scenario's wire form. It is the
// only such mapping: a local run materialises the spec with ToScenario,
// -submit ships it to the daemon, and -journal pins it in spec.json, so
// all three agree on every knob and on the scenario name that labels
// results. Enums are canonicalised so equal runs yield equal specs.
func (c *cli) scenarioSpec() (experiment.ScenarioSpec, error) {
	proto, err := experiment.ParseProtocol(c.protocol)
	if err != nil {
		return experiment.ScenarioSpec{}, err
	}
	strategy := c.strategy
	if wire, ok := strategyAliases[strategy]; ok {
		strategy = wire
	}
	strat, err := experiment.ParseStrategy(strategy)
	if err != nil {
		return experiment.ScenarioSpec{}, err
	}
	sp := experiment.ScenarioSpec{
		Protocol:    proto.String(),
		Strategy:    strat.String(),
		Channel:     c.channel,
		PM:          c.pm,
		Duration:    c.duration.String(),
		TraceEvents: c.timeline,
	}
	if c.shards != 1 {
		sp.Shards = c.shards
	}
	if c.series {
		sp.BinSize = time.Second.String()
	}
	if c.random > 0 {
		kind := "random"
		if c.scaled {
			kind = "scaled-random"
		}
		sp.Topo = experiment.TopoSpec{Kind: kind, Nodes: c.random, Mis: c.mis}
		sp.Name = fmt.Sprintf("random-%d", c.random)
	} else {
		// The names experiment.Fig4 gives the same two stars.
		sp.Topo = experiment.TopoSpec{Kind: "star", Senders: c.senders, TwoFlow: c.twoFlow}
		if c.misNode > 0 {
			sp.Topo.Misbehaving = []int{c.misNode}
		}
		sp.Name = "zero-flow"
		if c.twoFlow {
			sp.Name = "two-flow"
		}
	}
	if c.basic {
		m := experiment.DefaultScenario().MAC
		m.BasicAccess = true
		sp.MAC = &m
	}
	if c.adaptive || c.block {
		p := experiment.DefaultScenario().Core
		p.AdaptiveThresh = c.adaptive
		p.BlockDiagnosed = c.block
		sp.Core = &p
	}
	f := experiment.FaultsSpec{FER: c.fer}
	if c.burst != "" {
		var meanFER, r float64
		if _, err := fmt.Sscanf(c.burst, "%g,%g", &meanFER, &r); err != nil {
			return experiment.ScenarioSpec{}, fmt.Errorf("-burst %q: want 'fer,r' (e.g. 0.1,0.25): %v", c.burst, err)
		}
		if !(meanFER >= 0 && meanFER < 1) || !(r > 0 && r <= 1) {
			return experiment.ScenarioSpec{}, fmt.Errorf("-burst %q: need fer in [0,1) and r in (0,1]", c.burst)
		}
		ge := dcfguard.GEForMeanFER(meanFER, r)
		f.Burst = &experiment.GESpec{
			PGoodBad: ge.PGoodBad, PBadGood: ge.PBadGood,
			GoodFER: ge.GoodFER, BadFER: ge.BadFER,
		}
		f.FER = 0
	}
	if c.churn != "" {
		parts := strings.SplitN(c.churn, ",", 2)
		f.ChurnInterval = parts[0]
		if len(parts) == 2 {
			f.ChurnDowntime = parts[1]
		}
	}
	if f.FER < 0 || f.FER > 0 || f.Burst != nil || f.ChurnInterval != "" {
		sp.Faults = &f
	}
	return sp, nil
}

func run(args []string) error {
	c, err := parseCLI(args)
	if err != nil {
		return err
	}
	sp, err := c.scenarioSpec()
	if err != nil {
		return err
	}
	if c.submit != "" {
		return runSubmit(c, sp)
	}
	s, err := sp.ToScenario()
	if err != nil {
		return err
	}
	if c.journal != "" {
		// The seed count is not part of the spec: more seeds resume.
		if err := experiment.ClaimJournal(c.journal, sp); err != nil {
			return fmt.Errorf("-journal: %w", err)
		}
	}
	o, err := setupObs(&s, &c.obs, c.seeds > 0)
	if err != nil {
		return err
	}

	stopProf, err := startProfiling(c.cpuProf, c.memProf, c.execTr)
	if err != nil {
		return err
	}
	if c.seeds > 0 {
		err = runAggregate(s, c, o)
	} else {
		err = runSingle(s, c)
	}
	// The obs sinks flush even after a failed run: the trace tail and
	// partial metrics are exactly what a failure investigation needs.
	if oerr := o.finish(); oerr != nil && err == nil {
		err = oerr
	}
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	return err
}

// reportFailure prints one seed's diagnostic dump to stderr.
func reportFailure(f *dcfguard.SeedFailure) {
	fmt.Fprint(os.Stderr, f.Dump())
}

func runSingle(s dcfguard.Scenario, c *cli) error {
	start := time.Now()
	r, err := dcfguard.RunGuarded(s, c.seed, c.seedTO)
	if err != nil {
		var f *dcfguard.SeedFailure
		if errors.As(err, &f) {
			reportFailure(f)
		}
		return err
	}
	fmt.Printf("scenario          %s (seed %d, %v simulated, %v wall)\n",
		r.Scenario, r.Seed, r.Duration, time.Since(start).Round(time.Millisecond))
	fmt.Printf("protocol          %s, strategy %s, PM %d%%\n", s.Protocol, s.Strategy, s.PM)
	fmt.Printf("total goodput     %.1f Kbps\n", r.TotalKbps)
	fmt.Printf("AVG (honest)      %.1f Kbps/node\n", r.AvgHonestKbps)
	fmt.Printf("MSB (misbehaving) %.1f Kbps/node\n", r.AvgMisbehaverKbps)
	fmt.Printf("delay AVG / MSB   %.1f / %.1f ms\n", r.AvgHonestDelayMs, r.AvgMisbehaverDelayMs)
	fmt.Printf("fairness (Jain)   %.3f\n", r.Fairness)
	fmt.Printf("correct diagnosis %.1f%%\n", r.CorrectDiagnosisPct)
	fmt.Printf("misdiagnosis      %.1f%%\n", r.MisdiagnosisPct)
	if r.ProvenMisbehaviors > 0 {
		fmt.Printf("proven misbehaviors %d\n", r.ProvenMisbehaviors)
	}
	if r.GreedyDetections > 0 {
		fmt.Printf("greedy detections %d\n", r.GreedyDetections)
	}
	fmt.Printf("kernel events     %d\n", r.EventsFired)
	if s.Faults.Enabled() {
		fmt.Printf("fault injection   %d frames dropped, %d receiver restarts\n",
			r.FaultDrops, r.Restarts)
	}
	if c.perNode {
		ids := make([]dcfguard.NodeID, 0, len(r.ThroughputBySender))
		for id := range r.ThroughputBySender {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			fmt.Printf("  sender %-3d %.1f Kbps\n", id, r.ThroughputBySender[id])
		}
	}
	if c.series {
		fmt.Println("diagnosis series (1 s bins):")
		for _, p := range r.Series {
			fmt.Printf("  t=%-4.0fs correct=%5.1f%% (%d packets)\n",
				p.Start.Seconds(), p.CorrectPct, p.Packets)
		}
	}
	if r.Trace != nil {
		fmt.Printf("frame timeline (first %d transmissions):\n", r.Trace.Len())
		fmt.Print(r.Trace.Text())
		if c.pcapPath != "" {
			f, err := os.Create(c.pcapPath)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := r.Trace.WritePcap(f); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", c.pcapPath)
		}
	}
	if c.csvPath != "" {
		if err := atomicio.WriteFile(c.csvPath, []byte(dcfguard.ResultsCSV([]dcfguard.Result{r})), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", c.csvPath)
	}
	return nil
}

func runAggregate(s dcfguard.Scenario, c *cli, o *obsRun) error {
	start := time.Now()
	cells := make([]dcfguard.SweepCell, c.seeds)
	for i, seed := range dcfguard.Seeds(c.seeds) {
		cells[i] = dcfguard.SweepCell{Scenario: s, Seed: seed}
	}
	stopTicker := o.startTicker(start)
	report, err := dcfguard.RunSweep(cells, dcfguard.SweepOptions{
		JournalDir:  c.journal,
		SeedTimeout: c.seedTO,
		Progress:    o.sweepProgress(),
	})
	stopTicker()
	if err != nil {
		return err
	}
	if report.Resumed > 0 {
		fmt.Printf("resumed %d of %d cells from %s (%d run now)\n",
			report.Resumed, len(cells), c.journal, report.Ran)
	}
	// A failed seed must not cost the finished ones: summarise the
	// partial results, dump the diagnostics, exit non-zero.
	ok := make([]dcfguard.Result, 0, len(report.Results))
	for _, r := range report.Results {
		if r.Scenario != "" {
			ok = append(ok, r)
		}
	}
	if c.csvPath != "" && len(ok) > 0 {
		if err := atomicio.WriteFile(c.csvPath, []byte(dcfguard.ResultsCSV(ok)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", c.csvPath)
	}
	if !report.OK() {
		for _, f := range report.Failures {
			reportFailure(f)
		}
		if len(ok) > 0 {
			fmt.Printf("partial results: %d of %d seeds completed\n", len(ok), len(cells))
			printAggregate(experiment.AggregateResults(s.Name, ok), c.series, start)
		}
		return fmt.Errorf("%d of %d seeds failed", len(report.Failures), len(cells))
	}
	printAggregate(experiment.AggregateResults(s.Name, report.Results), c.series, start)
	return nil
}

func printAggregate(agg dcfguard.Aggregate, series bool, start time.Time) {
	fmt.Printf("scenario          %s (%d seeds, %v wall)\n",
		agg.Scenario, agg.Runs, time.Since(start).Round(time.Millisecond))
	fmt.Printf("total goodput     %.1f ± %.1f Kbps\n", agg.TotalKbps.Mean, agg.TotalKbps.CI95)
	fmt.Printf("AVG (honest)      %.1f ± %.1f Kbps/node\n", agg.AvgHonestKbps.Mean, agg.AvgHonestKbps.CI95)
	fmt.Printf("MSB (misbehaving) %.1f ± %.1f Kbps/node\n", agg.AvgMisbehaverKbps.Mean, agg.AvgMisbehaverKbps.CI95)
	fmt.Printf("fairness (Jain)   %.3f\n", agg.Fairness.Mean)
	fmt.Printf("correct diagnosis %.1f ± %.1f %%\n", agg.CorrectDiagnosisPct.Mean, agg.CorrectDiagnosisPct.CI95)
	fmt.Printf("misdiagnosis      %.1f ± %.1f %%\n", agg.MisdiagnosisPct.Mean, agg.MisdiagnosisPct.CI95)
	if series {
		fmt.Println("diagnosis series (1 s bins, pooled):")
		for _, p := range agg.Series {
			fmt.Printf("  t=%-4.0fs correct=%5.1f%% (%d packets)\n",
				p.Start.Seconds(), p.CorrectPct, p.Packets)
		}
	}
}
