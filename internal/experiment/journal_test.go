package experiment

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcfguard/internal/atomicio"
	"dcfguard/internal/sim"
	"dcfguard/internal/topo"
)

func sweepCells(t *testing.T) []SweepCell {
	t.Helper()
	a := quickScenario("sweep-a")
	b := quickScenario("sweep-b")
	b.Protocol = Protocol80211
	return []SweepCell{
		{Scenario: a, Seed: 1}, {Scenario: a, Seed: 2},
		{Scenario: b, Seed: 1}, {Scenario: b, Seed: 2},
	}
}

// TestRunSweepInMemory: a journal-less sweep reproduces direct Run
// results in cell order.
func TestRunSweepInMemory(t *testing.T) {
	cells := sweepCells(t)
	report, err := RunSweep(cells, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("failures: %v", report.Failures)
	}
	if report.Ran != len(cells) || report.Resumed != 0 {
		t.Fatalf("Ran=%d Resumed=%d, want %d/0", report.Ran, report.Resumed, len(cells))
	}
	for i, c := range cells {
		want, err := Run(c.Scenario, c.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if resultChecksum(report.Results[i]) != resultChecksum(want) {
			t.Fatalf("cell %d (%s seed %d) differs from direct Run", i, c.Scenario.Name, c.Seed)
		}
	}
}

// TestRunSweepKillResume is the crash-recovery proof: a sweep killed
// mid-`atomicio.WriteFile` — the temp file written, the rename never
// reached, so a torn dot-prefixed temp sits in the journal directory —
// resumes from the journal, reruns only the unfinished cells (including
// the one whose checkpoint was torn), and the final CSV/JSON artifacts
// are byte-identical to an uninterrupted sweep's.
func TestRunSweepKillResume(t *testing.T) {
	cells := sweepCells(t)
	dir := t.TempDir()

	// Uninterrupted reference sweep (no journal).
	ref, err := RunSweep(cells, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refCSV := ResultsCSV(ref.Results)
	refJSON, err := json.Marshal(ref.Results)
	if err != nil {
		t.Fatal(err)
	}

	// "Killed" first invocation: three cells execute, but the process
	// dies inside the third cell's journal write — after the temp file
	// hits disk, before the rename (the atomicio kill hook reproduces
	// that exact on-disk state).
	killKey := CellFileName(cells[2].Scenario.Name, cells[2].Seed)
	errKilled := errors.New("kill -9 before rename")
	atomicio.TestHookBeforeRename = func(tmpName, path string) error {
		if filepath.Base(path) == killKey {
			return errKilled
		}
		return nil
	}
	defer func() { atomicio.TestHookBeforeRename = nil }()
	_, err = RunSweep(cells[:3], SweepOptions{JournalDir: dir})
	if !errors.Is(err, errKilled) {
		t.Fatalf("killed sweep returned %v, want the kill error", err)
	}
	atomicio.TestHookBeforeRename = nil

	// The kill left a torn temp file and no journal entry for the cell.
	torn, err := filepath.Glob(filepath.Join(dir, "."+killKey+".tmp-*"))
	if err != nil || len(torn) != 1 {
		t.Fatalf("torn temp files %v (err %v), want exactly one", torn, err)
	}
	if _, err := os.Stat(filepath.Join(dir, killKey)); !os.IsNotExist(err) {
		t.Fatalf("killed cell has a journal entry; the kill point missed")
	}

	// Resumed invocation over the full cell list: the torn temp file is
	// invisible (dot-prefixed temp names never match a journal key) and
	// the killed cell reruns alongside the never-started one.
	resumed, err := RunSweep(cells, SweepOptions{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.OK() {
		t.Fatalf("failures: %v", resumed.Failures)
	}
	if resumed.Resumed != 2 || resumed.Ran != 2 {
		t.Fatalf("Resumed=%d Ran=%d, want 2/2", resumed.Resumed, resumed.Ran)
	}
	if got := ResultsCSV(resumed.Results); got != refCSV {
		t.Fatalf("resumed CSV differs from uninterrupted sweep:\n--- resumed\n%s--- reference\n%s", got, refCSV)
	}
	gotJSON, err := json.Marshal(resumed.Results)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(refJSON) {
		t.Fatal("resumed JSON differs from uninterrupted sweep")
	}

	// Third invocation: everything journaled, nothing runs.
	again, err := RunSweep(cells, SweepOptions{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != 4 || again.Ran != 0 {
		t.Fatalf("Resumed=%d Ran=%d, want 4/0", again.Resumed, again.Ran)
	}
	if got := ResultsCSV(again.Results); got != refCSV {
		t.Fatal("fully-resumed CSV differs from uninterrupted sweep")
	}
}

// TestRunSweepCorruptCellRerun: a malformed journal cell (torn write on
// a lying disk) is rerun rather than trusted, and the output still
// matches.
func TestRunSweepCorruptCellRerun(t *testing.T) {
	cells := sweepCells(t)
	dir := t.TempDir()
	if _, err := RunSweep(cells, SweepOptions{JournalDir: dir}); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, CellFileName(cells[1].Scenario.Name, cells[1].Seed))
	if err := os.WriteFile(corrupt, []byte(`{"Scenario": truncated`), 0o644); err != nil {
		t.Fatal(err)
	}
	report, err := RunSweep(cells, SweepOptions{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if report.Resumed != 3 || report.Ran != 1 {
		t.Fatalf("Resumed=%d Ran=%d, want 3/1", report.Resumed, report.Ran)
	}
	want, err := Run(cells[1].Scenario, cells[1].Seed)
	if err != nil {
		t.Fatal(err)
	}
	if resultChecksum(report.Results[1]) != resultChecksum(want) {
		t.Fatal("rerun of corrupt cell differs from direct Run")
	}
}

// TestRunSweepIsolatesFailures: one panicking cell must not take down
// the sweep — every healthy cell still completes, the failure is
// reported with diagnostics, and the failed cell is never journaled (so
// a rerun retries it).
func TestRunSweepIsolatesFailures(t *testing.T) {
	cells := sweepCells(t)
	bad := quickScenario("sweep-bad")
	bad.Topo = func(uint64) *topo.Topology { panic("cell bug") }
	cells = append(cells[:2:2], append([]SweepCell{{Scenario: bad, Seed: 1}}, cells[2:]...)...)

	dir := t.TempDir()
	report, err := RunSweep(cells, SweepOptions{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() || len(report.Failures) != 1 {
		t.Fatalf("failures = %v, want exactly one", report.Failures)
	}
	f := report.Failures[0]
	if f.Scenario != "sweep-bad" || !strings.Contains(f.Panic, "cell bug") {
		t.Fatalf("failure misattributed: %+v", f)
	}
	for i, c := range cells {
		if c.Scenario.Name == "sweep-bad" {
			continue
		}
		if report.Results[i].Scenario != c.Scenario.Name {
			t.Fatalf("healthy cell %d missing its result", i)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, CellFileName("sweep-bad", 1))); !os.IsNotExist(err) {
		t.Fatal("failed cell was journaled; reruns would skip it")
	}
	rerun, err := RunSweep(cells, SweepOptions{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Resumed != 4 || rerun.Ran != 1 || len(rerun.Failures) != 1 {
		t.Fatalf("rerun Resumed=%d Ran=%d failures=%d, want 4/1/1",
			rerun.Resumed, rerun.Ran, len(rerun.Failures))
	}
}

// TestRunSweepDuplicateKeys: cells that would shadow each other in the
// journal are rejected up front.
func TestRunSweepDuplicateKeys(t *testing.T) {
	s := quickScenario("dup")
	_, err := RunSweep([]SweepCell{{Scenario: s, Seed: 1}, {Scenario: s, Seed: 1}}, SweepOptions{})
	if err == nil || !strings.Contains(err.Error(), "journal key") {
		t.Fatalf("duplicate cells accepted: %v", err)
	}
}

// TestResultJSONRoundTrip: journaled Results survive JSON encode/decode
// with every deterministic field bit-intact — the property the
// byte-identical resume guarantee rests on.
func TestResultJSONRoundTrip(t *testing.T) {
	s := quickScenario("roundtrip")
	s.BinSize = 50 * s.Duration / 1000 // exercise the Series field too
	r, err := Run(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if resultChecksum(back) != resultChecksum(r) {
		t.Fatal("Result changed across a JSON round-trip")
	}
}

// TestClaimJournalConfig: cmd/figures pins its Config minus Seeds. A
// rerun that changes the duration or the channel over the same journal
// is refused, since its fault-sweep cells carry the same names; the
// same config with more seeds resumes the finished cells. Config.Sweep
// stays out of the pin, so where the sweep journals does not change it.
func TestClaimJournalConfig(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	claim := func(cfg Config) error {
		pin := cfg
		pin.Seeds = nil
		return ClaimJournal(dir, pin)
	}
	// faults runs the sweep over the journal and returns its counters.
	faults := func(cfg Config) SweepSnapshot {
		t.Helper()
		cfg.Sweep = SweepOptions{JournalDir: dir, Progress: &SweepProgress{}}
		if _, err := ExtFaultTolerance(cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.Sweep.Progress.Snapshot()
	}
	cfg := QuickConfig()
	cfg.Duration = sim.Second
	cfg.Seeds = Seeds(1)
	cfg.FERs = []float64{0.1}
	if err := claim(cfg); err != nil {
		t.Fatal(err)
	}
	if got := faults(cfg); got.Ran != 2 {
		t.Fatalf("first sweep ran %d cells, want 2", got.Ran)
	}

	longer, v3 := cfg, cfg
	longer.Duration = 3 * sim.Second
	v3.Channel = ChannelV3
	for name, c := range map[string]Config{"duration": longer, "channel": v3} {
		if err := claim(c); err == nil || !strings.Contains(err.Error(), "records a different configuration") {
			t.Fatalf("changed %s over the journal: err %v", name, err)
		}
	}

	more := cfg
	more.Seeds = Seeds(2)
	more.Sweep = SweepOptions{JournalDir: "elsewhere", SeedTimeout: time.Minute}
	if err := claim(more); err != nil {
		t.Fatalf("more seeds: %v", err)
	}
	if got := faults(more); got.Resumed != 2 || got.Ran != 2 {
		t.Fatalf("more seeds: resumed %d, ran %d; want 2 and 2", got.Resumed, got.Ran)
	}
}
