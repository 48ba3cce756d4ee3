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
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dcfguard"
	"dcfguard/internal/atomicio"
	"dcfguard/internal/experiment"
)

func main() {
	if err := run(); err != nil {
		var f *experiment.SeedFailure
		if errors.As(err, &f) {
			fmt.Fprint(os.Stderr, f.Dump())
		}
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig      = flag.String("fig", "all", "figures to regenerate: a comma list of 4,5,6,7,8,9,a1..a7,hidden,faults,validate; or all, or none")
		seeds    = flag.Int("seeds", 0, "override seeds per data point (paper: 30)")
		duration = flag.Duration("duration", 0, "override simulated duration per run (paper: 50s)")
		quick    = flag.Bool("quick", false, "use the reduced smoke configuration")
		outDir   = flag.String("out", "", "also write each table as <dir>/<name>.txt and .csv")
		chart    = flag.Bool("chart", false, "also draw each table as an ASCII chart")
		report   = flag.String("report", "", "also write a combined markdown report to this path")
		journal  = flag.String("journal", "", "journal directory for resumable sweeps")
		seedTO   = flag.Duration("seedtimeout", 0, "wall-time budget per seed in resumable sweeps (0 disables)")
		channel  = flag.String("channel", "v2", "channel model for every figure: v2 (default) or v3 (v2 + propagation delay)")
	)
	flag.Parse()
	figs, err := experiment.SelectFigures(*fig)
	if err != nil {
		return err
	}
	var combined *dcfguard.Report
	if *report != "" {
		combined = &dcfguard.Report{
			Title: "dcfguard experiment report",
			Preamble: fmt.Sprintf("Reproduction of Kyasanur & Vaidya, DSN 2003. "+
				"Generated %s by cmd/figures.", time.Now().Format("2006-01-02")),
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
	cfg.Sweep = experiment.SweepOptions{JournalDir: *journal, SeedTimeout: *seedTO}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	start := time.Now()
	for _, f := range figs {
		if err := emit(f, cfg, *outDir, *chart, combined); err != nil {
			return err
		}
	}
	if combined != nil {
		if err := atomicio.WriteFile(*report, []byte(combined.Markdown(time.Since(start))), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d sections)\n", *report, combined.Len())
	}
	return nil
}

// emit generates one catalogue entry's tables and prints each one,
// with its chart when asked; it also adds them to the combined report
// and, given an output directory, writes them as <file>.txt and .csv.
func emit(f experiment.Figure, cfg dcfguard.Config, outDir string, chart bool, combined *dcfguard.Report) error {
	start := time.Now()
	tables, err := f.Run(cfg)
	if err != nil {
		return err
	}
	for i, t := range tables {
		fmt.Println(t.Render())
		if combined != nil {
			combined.Add(t, true)
		}
		if chart && len(t.Columns) > 1 {
			yCols := make([]int, 0, len(t.Columns)-1)
			for c := 1; c < len(t.Columns); c++ {
				yCols = append(yCols, c)
			}
			if plot := t.Chart(64, 16, 0, yCols...); !strings.Contains(plot, "no data") {
				fmt.Println(plot)
			}
		}
		fmt.Printf("(generated in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if outDir != "" {
			base := filepath.Join(outDir, f.Files[i])
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
