package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dcfguard"
	"dcfguard/internal/atomicio"
)

// obsFlags carries the observability flag values. Everything is off by
// default, so plain runs pay nothing and stay bit-identical to the
// goldens (the obs layer is pass-through even when on, but off-by-default
// also keeps the output streams quiet).
type obsFlags struct {
	metrics     string
	traceCats   string
	traceOut    string
	diagCSV     string
	debugAddr   string
	progress    bool
	explain     string
	explainJSON string
}

// register declares the observability flags on fs.
func (f *obsFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.metrics, "metrics", "",
		"write a metrics-registry snapshot (JSON) to this file after the run; with -seeds the registry aggregates across all cells")
	fs.StringVar(&f.traceCats, "trace-events", "",
		"decision-trace categories to record: comma list of mac,backoff,deviation,diagnosis,channel, or all")
	fs.StringVar(&f.traceOut, "trace-out", "",
		"write traced events as JSON lines to this file (single run only; implies -trace-events all unless set)")
	fs.StringVar(&f.diagCSV, "diag-csv", "",
		"write the monitor's diagnosis trail as CSV to this file (single run only; enables the diagnosis category)")
	fs.StringVar(&f.debugAddr, "debug-addr", "",
		"serve live introspection (pprof, /debug/metrics, /debug/sweep) on this address, e.g. localhost:6060")
	fs.BoolVar(&f.progress, "progress", false,
		"with -seeds: print a periodic progress line (cells done, failures, retries, events/sec, wall ETA) to stderr")
	fs.StringVar(&f.explain, "explain", "",
		"after a single run, print the evidence chain behind every diagnosis decision about this sender id ('all' for every node)")
	fs.StringVar(&f.explainJSON, "explain-json", "",
		"with -explain: also write the evidence chains as JSON lines to this file")
}

// obsRun is one invocation's assembled observability state: the scenario
// config wired into s.Observe plus the host-side endpoints (files, HTTP
// server, progress counters) that outlive individual runs. A nil *obsRun
// is valid and means "observability off".
type obsRun struct {
	metricsPath string
	registry    *dcfguard.ObsRegistry
	jsonl       *dcfguard.ObsJSONL
	jsonlPath   string
	diag        *dcfguard.ObsDiagnosisCSV
	diagPath    string
	debug       *dcfguard.ObsDebugServer
	progress    *dcfguard.SweepProgress
	showTicker  bool
	capture     *dcfguard.ObsCaptureSink
	explainNode dcfguard.NodeID
	explainJSON string
}

// setupObs validates the flag combination, wires s.Observe, and starts
// the debug endpoint if requested. sweep reports whether -seeds is in
// effect (per-run stateful sinks are rejected there: one JSONL/CSV file
// cannot serialise concurrent cells).
func setupObs(s *dcfguard.Scenario, f *obsFlags, sweep bool) (*obsRun, error) {
	if !sweep {
		if f.progress {
			return nil, fmt.Errorf("-progress requires -seeds")
		}
	} else {
		if f.traceOut != "" {
			return nil, fmt.Errorf("-trace-out cannot be combined with -seeds (concurrent cells would interleave one file); use a single -seed run")
		}
		if f.diagCSV != "" {
			return nil, fmt.Errorf("-diag-csv cannot be combined with -seeds (concurrent cells would interleave one file); use a single -seed run")
		}
		if f.explain != "" {
			return nil, fmt.Errorf("-explain cannot be combined with -seeds (the evidence chain belongs to one run); use a single -seed run")
		}
	}
	if f.explainJSON != "" && f.explain == "" {
		return nil, fmt.Errorf("-explain-json requires -explain")
	}

	cats := dcfguard.ObsCategorySet(0)
	if f.traceCats != "" {
		var err error
		cats, err = dcfguard.ParseObsCategories(f.traceCats)
		if err != nil {
			return nil, fmt.Errorf("-trace-events: %w", err)
		}
	}
	if f.traceOut != "" && cats.Empty() {
		cats = dcfguard.ObsAllCategories()
	}
	if f.diagCSV != "" {
		cats = cats.Set(dcfguard.ObsCatDiagnosis)
	}

	o := &obsRun{metricsPath: f.metrics, showTicker: f.progress}
	if f.explain != "" {
		// The explanation walks backoff assignments, deviations and window
		// updates by causal reference: all three categories must record.
		cats = cats.Set(dcfguard.ObsCatBackoff).
			Set(dcfguard.ObsCatDeviation).
			Set(dcfguard.ObsCatDiagnosis)
		o.explainNode = dcfguard.ObsNoNode
		if f.explain != "all" {
			n, err := strconv.Atoi(f.explain)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("-explain %q: want a sender id or 'all'", f.explain)
			}
			o.explainNode = dcfguard.NodeID(n)
		}
		o.capture = dcfguard.NewObsCaptureSink()
		o.explainJSON = f.explainJSON
	}
	cfg := &dcfguard.ObsConfig{Categories: cats}
	if f.metrics != "" || f.debugAddr != "" {
		o.registry = dcfguard.NewObsRegistry()
		cfg.Registry = o.registry
	}
	if f.traceOut != "" {
		o.jsonl, o.jsonlPath = dcfguard.NewObsJSONL(f.traceOut), f.traceOut
		cfg.Sinks = append(cfg.Sinks, o.jsonl)
	}
	if f.diagCSV != "" {
		o.diag, o.diagPath = dcfguard.NewObsDiagnosisCSV(f.diagCSV), f.diagCSV
		cfg.Sinks = append(cfg.Sinks, o.diag)
	}
	if o.capture != nil {
		cfg.Sinks = append(cfg.Sinks, o.capture)
	}
	if cfg.Registry != nil || !cfg.Categories.Empty() {
		s.Observe = cfg
	}
	if sweep && (f.progress || f.debugAddr != "") {
		o.progress = &dcfguard.SweepProgress{}
	}

	if f.debugAddr != "" {
		o.debug = dcfguard.NewObsDebugServer()
		o.debug.SetRegistry(o.registry)
		if o.progress != nil {
			p := o.progress
			o.debug.SetProgress(func() any { return p.Snapshot() })
		}
		addr, err := o.debug.Start(f.debugAddr)
		if err != nil {
			return nil, fmt.Errorf("-debug-addr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "debug endpoint listening on http://%s/debug/\n", addr)
	}
	if o.registry == nil && o.jsonl == nil && o.diag == nil && o.debug == nil && o.progress == nil && o.capture == nil && s.Observe == nil {
		return nil, nil
	}
	return o, nil
}

// sweepProgress returns the live counter block for SweepOptions (nil when
// neither -progress nor -debug-addr asked for one).
func (o *obsRun) sweepProgress() *dcfguard.SweepProgress {
	if o == nil {
		return nil
	}
	return o.progress
}

// startTicker launches the -progress stderr reporter and returns its stop
// function. The ETA is linear extrapolation over cells finished this
// invocation — wall clock lives here in the CLI, never in the sim.
func (o *obsRun) startTicker(start time.Time) (stop func()) {
	if o == nil || !o.showTicker || o.progress == nil {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		const interval = 2 * time.Second
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var lastEvents int64
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				snap := o.progress.Snapshot()
				line := fmt.Sprintf("progress: %d/%d cells", snap.Done, snap.Total)
				if snap.Failed > 0 {
					line += fmt.Sprintf(", %d failed", snap.Failed)
				}
				if snap.Resumed > 0 {
					line += fmt.Sprintf(", %d resumed", snap.Resumed)
				}
				if snap.Retried > 0 {
					line += fmt.Sprintf(", %d retries", snap.Retried)
				}
				// Instantaneous kernel throughput: events fired since the
				// previous tick, over the tick interval.
				if delta := snap.Events - lastEvents; delta > 0 {
					line += fmt.Sprintf(", %.2gM ev/s", float64(delta)/interval.Seconds()/1e6)
				}
				lastEvents = snap.Events
				// ETA excludes journal-resumed cells from the rate (they
				// cost no compute); the arithmetic lives on SweepSnapshot
				// so the serve daemon's job status agrees with this line.
				if eta := snap.ETA(time.Since(start)); eta > 0 {
					line += fmt.Sprintf(", ETA %v", eta.Round(time.Second))
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// finish shuts the debug endpoint down, renders the -explain report,
// flushes the file sinks (atomic writes) and snapshots the metrics
// registry. It runs even after a failed run so partial diagnostics
// survive. The debug server closes FIRST: Close drains in-flight
// handlers, so no request can race the sinks and registry going away
// below it.
func (o *obsRun) finish() error {
	if o == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if o.debug != nil {
		keep(o.debug.Close())
	}
	if o.capture != nil {
		keep(o.renderExplanations())
	}
	if o.jsonl != nil {
		keep(o.jsonl.Close())
		if first == nil {
			fmt.Printf("wrote %s (%d events)\n", o.jsonlPath, o.jsonl.Len())
		}
	}
	if o.diag != nil {
		keep(o.diag.Close())
		if first == nil {
			fmt.Printf("wrote %s (%d diagnosis rows)\n", o.diagPath, o.diag.Len())
		}
	}
	if o.metricsPath != "" && o.registry != nil {
		data, err := json.MarshalIndent(o.registry, "", "  ")
		if err == nil {
			err = atomicio.WriteFile(o.metricsPath, append(data, '\n'), 0o644)
		}
		keep(err)
		if err == nil {
			fmt.Printf("wrote %s\n", o.metricsPath)
		}
	}
	return first
}

// renderExplanations walks the run's trace capture and prints the
// evidence chain behind every diagnosis decision about the -explain
// target, optionally writing the machine-readable JSONL alongside.
func (o *obsRun) renderExplanations() error {
	exps := dcfguard.ObsExplain(o.capture.Records(), o.explainNode)
	if len(exps) == 0 {
		if o.explainNode == dcfguard.ObsNoNode {
			fmt.Println("explain: no diagnosis decisions recorded")
		} else {
			fmt.Printf("explain: no diagnosis decisions recorded about sender %d\n", o.explainNode)
		}
	}
	for i, e := range exps {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(e.Text())
	}
	if o.explainJSON != "" {
		var b strings.Builder
		for _, e := range exps {
			b.WriteString(e.JSONL())
		}
		if err := atomicio.WriteFile(o.explainJSON, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d decisions)\n", o.explainJSON, len(exps))
	}
	return nil
}
