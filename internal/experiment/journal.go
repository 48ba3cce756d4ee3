package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"dcfguard/internal/atomicio"
)

// SweepCell is one (scenario, seed) unit of a sweep. Scenario names must
// be unique per configuration within a sweep: the journal keys cells by
// (name, seed), so two different configurations sharing a name would
// shadow each other on resume.
type SweepCell struct {
	Scenario Scenario
	Seed     uint64
}

// SweepOptions configures RunSweep. The zero value runs everything
// in-memory on GOMAXPROCS workers (at most one per cell) with no
// watchdog.
type SweepOptions struct {
	// JournalDir, when non-empty, checkpoints every completed cell as an
	// atomically written JSON file in this directory (created if
	// missing). A rerun over the same directory loads finished cells
	// from disk and executes only the rest, so an interrupted sweep —
	// crash, kill -9, power cut — resumes where it left off and still
	// produces byte-identical final output.
	JournalDir string
	// SeedTimeout, when positive, bounds each cell's wall time via
	// RunGuarded's watchdog.
	SeedTimeout time.Duration
	// Progress, when non-nil, receives live cell counters as the sweep
	// advances (see SweepProgress); the macsim -progress ticker and the
	// obs debug endpoint read it concurrently.
	Progress *SweepProgress
}

// SweepReport is RunSweep's outcome. Results is index-aligned with the
// input cells; a failed cell leaves its zero Result in place and a
// *SeedFailure in Failures (in cell order).
type SweepReport struct {
	Results  []Result
	Failures []*SeedFailure
	// Resumed counts cells restored from the journal; Ran counts cells
	// executed this invocation.
	Resumed int
	Ran     int
}

// OK reports whether every cell produced a result.
func (r *SweepReport) OK() bool { return len(r.Failures) == 0 }

// ClaimJournal ties a journal directory to one configuration: the
// first run writes pin's JSON to <dir>/spec.json, and a later run
// resumes only if its pin marshals to the same bytes. RunSweep keys
// cells by (scenario name, seed) alone, so without this check a rerun
// with, say, a different PM or duration would report the old cells as
// its own. Callers leave the seed count out of pin, so that a rerun
// with more seeds resumes.
func ClaimJournal(dir string, pin any) error {
	want, err := json.Marshal(pin)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "spec.json")
	have, err := os.ReadFile(path)
	switch {
	case err == nil:
		if !bytes.Equal(have, want) {
			return fmt.Errorf("%s records a different configuration; use a fresh directory", path)
		}
		return nil
	case !os.IsNotExist(err):
		return err
	}
	if cells, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(cells) > 0 {
		return fmt.Errorf("%s holds %d cells but no spec.json, so their configuration is unknown; use a fresh directory", dir, len(cells))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return atomicio.WriteFile(path, want, 0o644)
}

// CellFileName maps a (scenario name, seed) journal key to its file
// name. Scenario names are sanitised to a filesystem-safe alphabet; the
// seed keeps cells of one scenario apart. Exported so out-of-package
// sweep drivers (the serve daemon) address the same journal layout
// RunSweep resumes from.
func CellFileName(scenario string, seed uint64) string {
	sanitised := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, scenario)
	return fmt.Sprintf("%s-seed%d.json", sanitised, seed)
}

// LoadJournaledCell reads one checkpointed cell from dir. A missing or
// malformed file (a torn write on a lying disk — impossible with
// atomicio, but journals outlive their writer) reports ok=false with no
// error: the cell is simply rerun. A cell whose decoded (Scenario, Seed)
// is not the key asked for — `{}`, `null`, another cell's result — is
// malformed too. The error is reserved for real I/O problems
// (permissions, unreadable directory).
func LoadJournaledCell(dir, scenario string, seed uint64) (Result, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, CellFileName(scenario, seed)))
	if err != nil {
		if os.IsNotExist(err) {
			return Result{}, false, nil
		}
		return Result{}, false, fmt.Errorf("experiment: journal: %w", err)
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil || r.Scenario != scenario || r.Seed != seed {
		return Result{}, false, nil
	}
	return r, true, nil
}

// JournalCell checkpoints one cell result into dir atomically, keyed by
// the result's own (Scenario, Seed).
func JournalCell(dir string, res Result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("experiment: journal: %w", err)
	}
	path := filepath.Join(dir, CellFileName(res.Scenario, res.Seed))
	if err := atomicio.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("experiment: journal: %w", err)
	}
	return nil
}

// RunSweep executes the cells across a worker pool, isolating each cell
// with RunGuarded: a panicking or timed-out cell is recorded as a
// failure while the remaining cells still run to completion. With a
// journal directory it is also resumable — see SweepOptions.JournalDir.
//
// The returned error is reserved for sweep-level problems (no cells,
// duplicate journal keys, an unusable journal directory); per-cell
// failures are reported in the SweepReport so the caller can render
// partial results plus diagnostics and choose its own exit code.
func RunSweep(cells []SweepCell, opts SweepOptions) (SweepReport, error) {
	report := SweepReport{Results: make([]Result, len(cells))}
	if len(cells) == 0 {
		return report, fmt.Errorf("experiment: sweep has no cells")
	}
	opts.Progress.SetTotal(len(cells))
	seen := make(map[string]int, len(cells))
	for i, c := range cells {
		key := CellFileName(c.Scenario.Name, c.Seed)
		if j, dup := seen[key]; dup {
			return report, fmt.Errorf("experiment: cells %d and %d share journal key %s (scenario %q seed %d)",
				j, i, key, c.Scenario.Name, c.Seed)
		}
		seen[key] = i
	}

	// Resume: load every journaled cell before spending any compute.
	done := make([]bool, len(cells))
	if opts.JournalDir != "" {
		if err := os.MkdirAll(opts.JournalDir, 0o755); err != nil {
			return report, fmt.Errorf("experiment: journal: %w", err)
		}
		for i, c := range cells {
			r, ok, err := LoadJournaledCell(opts.JournalDir, c.Scenario.Name, c.Seed)
			if err != nil {
				return report, err
			}
			if !ok {
				continue
			}
			report.Results[i] = r
			done[i] = true
			report.Resumed++
			opts.Progress.CellResumed()
		}
	}

	failures := make([]*SeedFailure, len(cells))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cells) {
		workers = len(cells)
	}
	var wg sync.WaitGroup
	var journalErr error
	var journalMu sync.Mutex
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				c := cells[i]
				res, err := RunGuarded(c.Scenario, c.Seed, opts.SeedTimeout)
				opts.Progress.CellDone(err != nil)
				opts.Progress.AddEvents(res.EventsFired)
				if err != nil {
					// RunGuarded guarantees a *SeedFailure.
					failures[i] = err.(*SeedFailure)
					continue
				}
				report.Results[i] = res
				if opts.JournalDir != "" {
					if merr := JournalCell(opts.JournalDir, res); merr != nil {
						journalMu.Lock()
						if journalErr == nil {
							journalErr = merr
						}
						journalMu.Unlock()
					}
				}
			}
		}()
	}
	for i := range cells {
		if !done[i] {
			report.Ran++
			work <- i
		}
	}
	close(work)
	wg.Wait()

	if journalErr != nil {
		return report, journalErr
	}
	for _, f := range failures {
		if f != nil {
			report.Failures = append(report.Failures, f)
		}
	}
	return report, nil
}
