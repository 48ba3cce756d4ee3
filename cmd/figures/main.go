// Command figures regenerates the paper's evaluation: one table per
// figure (4-9) plus the ablations catalogued in DESIGN.md. Tables print
// to stdout and, with -out, are also written as .txt and .csv files.
//
// Examples:
//
//	figures -fig 4                    # full-scale Figure 4 (slow)
//	figures -fig all -seeds 10 -duration 15s -out results/
//	figures -fig a5 -quick            # smoke-scale ablation A5
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dcfguard"
	"dcfguard/internal/analytic"
	"dcfguard/internal/atomicio"
	"dcfguard/internal/experiment"
)

// drawCharts mirrors the -chart flag for emit; combined accumulates the
// -report document.
var (
	drawCharts bool
	combined   *dcfguard.Report
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 4,5,6,7,8,9,a1..a7,validate or all")
		seeds    = flag.Int("seeds", 0, "override seeds per data point (paper: 30)")
		duration = flag.Duration("duration", 0, "override simulated duration per run (paper: 50s)")
		quick    = flag.Bool("quick", false, "use the reduced smoke configuration")
		outDir   = flag.String("out", "", "also write each table as <dir>/<name>.txt and .csv")
		chart    = flag.Bool("chart", false, "also draw each table as an ASCII chart")
		report   = flag.String("report", "", "also write a combined markdown report to this path")
		journal  = flag.String("journal", "", "journal directory for resumable sweeps (fig faults)")
		seedTO   = flag.Duration("seedtimeout", 0, "wall-time budget per seed in resumable sweeps (0 disables)")
		diagCSV  = flag.String("diag-trail", "", "also export the CORRECT PM-80 diagnosis trail (per-window monitor decisions) as CSV to this path; use -fig none for the trail alone")
		channel  = flag.String("channel", "v2", "channel model for every figure: v2 (default) or v3 (v2 + propagation delay)")
	)
	flag.Parse()
	drawCharts = *chart
	if *report != "" {
		combined = &dcfguard.Report{
			Title: "dcfguard experiment report",
			Preamble: fmt.Sprintf("Reproduction of Kyasanur & Vaidya, DSN 2003. "+
				"Generated %s by cmd/figures.", time.Now().Format("2006-01-02")), //detlint:allow wallclock -- report generation date stamp, host-side output
		}
	}

	cfg := dcfguard.DefaultConfig()
	if *quick {
		cfg = dcfguard.QuickConfig()
	}
	if *seeds > 0 {
		cfg.Seeds = dcfguard.Seeds(*seeds)
	}
	if *duration > 0 {
		cfg.Duration = dcfguard.Time(*duration)
	}
	ch, err := experiment.ParseChannel(*channel)
	if err != nil {
		return err
	}
	cfg.Channel = ch
	if *journal != "" {
		// Cells are keyed by (scenario name, seed), and the names do not
		// carry the duration or channel: pin the whole config, minus the
		// seeds so that a rerun with more seeds resumes.
		pin := cfg
		pin.Seeds = nil
		if err := experiment.ClaimJournal(*journal, pin); err != nil {
			return fmt.Errorf("-journal: %w", err)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	targets := strings.Split(*fig, ",")
	switch *fig {
	case "all":
		targets = []string{"4", "5", "6+7", "8", "9", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "hidden", "faults", "validate"}
	case "none":
		targets = nil
	}
	sweep := dcfguard.SweepOptions{JournalDir: *journal, SeedTimeout: *seedTO}
	start := time.Now() //detlint:allow wallclock -- host-side CLI timing, outside the simulation
	for _, target := range targets {
		if err := emit(target, cfg, *outDir, sweep); err != nil {
			return err
		}
	}
	if *diagCSV != "" {
		if err := emitDiagTrail(cfg, *diagCSV); err != nil {
			return err
		}
	}
	if combined != nil {
		if err := atomicio.WriteFile(*report, []byte(combined.Markdown(time.Since(start))), 0o644); err != nil { //detlint:allow wallclock -- host-side CLI timing, outside the simulation
			return err
		}
		fmt.Printf("wrote %s (%d sections)\n", *report, combined.Len())
	}
	return nil
}

// emitDiagTrail runs the paper's canonical misbehavior case — the
// ZERO-FLOW star under CORRECT with node 3 at PM 80 — with diagnosis
// tracing on and writes every per-window monitor decision (diff, sliding
// window sum, threshold, verdict) as CSV: the raw trail behind Figure 4's
// accuracy percentages.
func emitDiagTrail(cfg dcfguard.Config, path string) error {
	start := time.Now() //detlint:allow wallclock -- host-side CLI timing, outside the simulation
	s := dcfguard.DefaultScenario()
	s.Name = "diag-trail-pm80"
	s.PM = 80
	s.Duration = cfg.Duration
	s.Channel = cfg.Channel
	sink := dcfguard.NewObsDiagnosisCSV(path)
	s.Observe = &dcfguard.ObsConfig{
		Categories: dcfguard.ObsCategorySet(0).Set(dcfguard.ObsCatDiagnosis),
		Sinks:      []dcfguard.ObsSink{sink},
	}
	if _, err := dcfguard.Run(s, 1); err != nil {
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d diagnosis rows, generated in %v)\n",
		path, sink.Len(), time.Since(start).Round(time.Millisecond)) //detlint:allow wallclock -- host-side CLI timing, outside the simulation
	return nil
}

func emit(target string, cfg dcfguard.Config, outDir string, sweep dcfguard.SweepOptions) error {
	start := time.Now() //detlint:allow wallclock -- host-side CLI timing, outside the simulation
	var tables []*dcfguard.Table
	var names []string

	switch target {
	case "4":
		t, err := dcfguard.Fig4(cfg)
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t}, []string{"fig4"}
	case "5", "delay", "5+delay":
		t5, tD, err := dcfguard.Fig5WithDelay(cfg)
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t5, tD}, []string{"fig5", "ext-delay"}
	case "6", "7", "6+7":
		t6, t7, err := dcfguard.Fig6And7(cfg)
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t6, t7}, []string{"fig6", "fig7"}
	case "8":
		t, err := dcfguard.Fig8(cfg)
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t}, []string{"fig8"}
	case "9":
		t, err := dcfguard.Fig9(cfg)
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t}, []string{"fig9"}
	case "a1":
		t, err := dcfguard.AblationPenaltyFactor(cfg, []float64{1.0, 1.25, 1.5, 2.0})
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t}, []string{"ablation-a1-penalty"}
	case "a2":
		t, err := dcfguard.AblationAlpha(cfg, []float64{0.5, 0.7, 0.9, 1.0})
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t}, []string{"ablation-a2-alpha"}
	case "a3":
		t, err := dcfguard.AblationWindow(cfg, []dcfguard.WindowPoint{
			{W: 3, Thresh: 12}, {W: 5, Thresh: 10}, {W: 5, Thresh: 20}, {W: 10, Thresh: 40},
		})
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t}, []string{"ablation-a3-window"}
	case "a4":
		t, err := dcfguard.AblationAttemptVerification(cfg)
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t}, []string{"ablation-a4-attempts"}
	case "a5":
		t, err := dcfguard.AblationReceiverMisbehavior(cfg)
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t}, []string{"ablation-a5-receiver"}
	case "a6":
		t, err := dcfguard.AblationAdaptiveThresh(cfg)
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t}, []string{"ablation-a6-adaptive"}
	case "a7":
		t, err := dcfguard.AblationBasicAccess(cfg)
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t}, []string{"ablation-a7-basic-access"}
	case "hidden":
		t, err := dcfguard.ExtHiddenTerminal(cfg)
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t}, []string{"ext-hidden-terminal"}
	case "faults":
		t, rep, err := dcfguard.ExtFaultTolerance(cfg, sweep)
		if err != nil {
			return err
		}
		if !rep.OK() {
			for _, f := range rep.Failures {
				fmt.Fprint(os.Stderr, f.Dump())
			}
			return fmt.Errorf("faults sweep: %d cells failed (table skipped)", len(rep.Failures))
		}
		tables, names = []*dcfguard.Table{t}, []string{"ext-fault-tolerance"}
	case "validate":
		t, err := analytic.ValidateAgainstModel(cfg)
		if err != nil {
			return err
		}
		tables, names = []*dcfguard.Table{t}, []string{"validate-bianchi"}
	default:
		return fmt.Errorf("unknown figure %q", target)
	}

	for i, t := range tables {
		fmt.Println(t.Render())
		if combined != nil {
			combined.Add(t, true)
		}
		if drawCharts && len(t.Columns) > 1 {
			yCols := make([]int, 0, len(t.Columns)-1)
			for c := 1; c < len(t.Columns); c++ {
				yCols = append(yCols, c)
			}
			if plot := t.Chart(64, 16, 0, yCols...); !strings.Contains(plot, "no data") {
				fmt.Println(plot)
			}
		}
		fmt.Printf("(generated in %v)\n\n", time.Since(start).Round(time.Millisecond)) //detlint:allow wallclock -- host-side CLI timing, outside the simulation
		if outDir != "" {
			base := filepath.Join(outDir, names[i])
			if err := atomicio.WriteFile(base+".txt", []byte(t.Render()), 0o644); err != nil {
				return err
			}
			if err := atomicio.WriteFile(base+".csv", []byte(t.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
