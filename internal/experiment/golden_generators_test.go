package experiment_test

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"runtime"
	"testing"

	"dcfguard/internal/experiment"
	"dcfguard/internal/sim"
)

// tinyConfig is the smallest configuration that still gives every
// generator more than one point and more than one seed.
func tinyConfig() experiment.Config {
	return experiment.Config{
		Duration:     2 * sim.Second,
		Seeds:        experiment.Seeds(2),
		PMs:          []int{30, 80},
		NetworkSizes: []int{1, 4},
		Fig8PMs:      []int{40, 80},
		FERs:         []float64{0, 0.2},
	}
}

// wantTableDigests pins the SHA-256 of every rendered table at
// tinyConfig, keyed by the file name the catalogue gives it. They were
// recorded when each generator still ran one point at a time.
var wantTableDigests = map[string]string{
	"fig4":                     "b2a6c18825d158db539f58a6b7c9daeb26014bf3b7903ec0856350be44338942",
	"fig5":                     "44f8b90cc9774641bfe6b5685cfcc81319812eb64f21669d8f4df70338a38675",
	"ext-delay":                "f6f873b96d7c963300de8f2ea51d4d71d82d84ff9126e172648fceb6af12c741",
	"fig6":                     "6ff1d2180b6bb7efb069d35a6f2cee670a85daa790a01dad5a328bc5fd436e79",
	"fig7":                     "867acfd11a050a7710f1038ee36aefbc351edafe2a7e45dad458f4b0aec2c533",
	"fig8":                     "beb53b126486c219482b68998744ba1845686a5b7c6fe3010278a062908b2bf8",
	"fig9":                     "fb92ced9b3ef78f0114f8fe4785f80d2d67534cc04a136b1826ce6419ae7fd60",
	"ablation-a1-penalty":      "f8cb263d622181c641795b5c129f0ec09762d0f0a4d8be4a346f58a9e953fa81",
	"ablation-a2-alpha":        "75ff87ff12ae80229dec83e2ecba01778ce05e8bc45c05129512f411c8fc7367",
	"ablation-a3-window":       "0a1b917b861aae306761ca787a32b937df40c09413b12149f1240fe2c557fc25",
	"ablation-a4-attempts":     "bb461422dd5134fcae808346714cdd7eff64d085fb35ad5dd846c54216bb5e72",
	"ablation-a5-receiver":     "7b849d0bb56013e5fcaa213438d394f9aa463b4c1118ecae1d20ff169e972303",
	"ablation-a6-adaptive":     "99d15422179a4f47c7567f8471ac2b8a7d29a79674460249de56c772c2f45544",
	"ablation-a7-basic-access": "98c86500215d54a492a73dbdf982ecfd4378b3205c190183e5bfb06d699bd0cd",
	"ext-hidden-terminal":      "448375c5a7008d664767f22cd6fe0e2a0470db9fcf475751ba10d6832beed643",
	"ext-fault-tolerance":      "24ece4c228d98c31410989d651430c29c80e6bc12d7bb69c7ad39394f97d7f33",
	"validate-bianchi":         "a18ffa0f8c2442e31f82b59ed643995200ddccf3e101c3ba0c033ae35043d0ee",
}

// runCatalogue runs every catalogue entry at cfg and returns the
// rendered tables keyed by file name, checking that each entry returns
// one table per file it names.
func runCatalogue(t *testing.T, cfg experiment.Config) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, f := range experiment.Figures {
		tables, err := f.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if len(tables) != len(f.Files) {
			t.Fatalf("%s: %d tables, %d files", f.Name, len(tables), len(f.Files))
		}
		for i, tb := range tables {
			out[f.Files[i]] = tb.Render()
		}
	}
	return out
}

// TestGeneratorTablesPinnedAcrossWorkerCounts: every table of the
// catalogue is a pure function of its configuration, whatever the
// number of workers the shared pool runs the generator's cells on.
func TestGeneratorTablesPinnedAcrossWorkerCounts(t *testing.T) {
	procs := []int{1, 2, 3}
	if testing.Short() {
		procs = []int{3}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range procs {
		runtime.GOMAXPROCS(n)
		got := runCatalogue(t, tinyConfig())
		if len(got) != len(wantTableDigests) {
			t.Errorf("GOMAXPROCS=%d: %d tables, want %d", n, len(got), len(wantTableDigests))
		}
		for file, table := range got {
			sum := sha256.Sum256([]byte(table))
			if d := hex.EncodeToString(sum[:]); d != wantTableDigests[file] {
				t.Errorf("GOMAXPROCS=%d %s: digest %s, want %s\n%s", n, file, d, wantTableDigests[file], table)
			}
		}
	}
}

// TestFigureJournalCoversCatalogue: with a journal directory in
// Config.Sweep, every catalogue entry journals every cell it plans, so
// a second pass over the same directory runs nothing and renders the
// same tables.
func TestFigureJournalCoversCatalogue(t *testing.T) {
	dir := t.TempDir()
	pass := func() (map[string]string, experiment.SweepSnapshot) {
		cfg := tinyConfig()
		cfg.Sweep = experiment.SweepOptions{JournalDir: dir, Progress: &experiment.SweepProgress{}}
		tables := runCatalogue(t, cfg)
		return tables, cfg.Sweep.Progress.Snapshot()
	}
	first, ran := pass()
	cells, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if ran.Resumed != 0 || ran.Ran == 0 || len(cells) != ran.Ran {
		t.Fatalf("first pass: resumed %d, ran %d, journal holds %d cells; want 0 resumed and one cell file per run",
			ran.Resumed, ran.Ran, len(cells))
	}
	second, resumed := pass()
	if resumed.Ran != 0 || resumed.Resumed != ran.Ran {
		t.Fatalf("second pass: ran %d, resumed %d; want 0 and %d", resumed.Ran, resumed.Resumed, ran.Ran)
	}
	for file, table := range first {
		if second[file] != table {
			t.Errorf("%s differs when resumed from the journal:\n--- resumed\n%s--- first\n%s", file, second[file], table)
		}
	}
}
