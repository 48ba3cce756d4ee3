package experiment_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"dcfguard/internal/analytic"
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
		Channel:      experiment.ChannelV2,
	}
}

// generator is one table generator, as cmd/figures calls it.
type generator struct {
	name string
	run  func(experiment.Config) ([]*experiment.Table, error)
}

func one(t *experiment.Table, err error) ([]*experiment.Table, error) {
	return []*experiment.Table{t}, err
}

func two(a, b *experiment.Table, err error) ([]*experiment.Table, error) {
	return []*experiment.Table{a, b}, err
}

// generators lists every table generator with cmd/figures' arguments.
var generators = []generator{
	{"fig4", func(c experiment.Config) ([]*experiment.Table, error) { return one(experiment.Fig4(c)) }},
	{"fig5+delay", func(c experiment.Config) ([]*experiment.Table, error) { return two(experiment.Fig5WithDelay(c)) }},
	{"fig6+7", func(c experiment.Config) ([]*experiment.Table, error) { return two(experiment.Fig6And7(c)) }},
	{"fig8", func(c experiment.Config) ([]*experiment.Table, error) { return one(experiment.Fig8(c)) }},
	{"fig9", func(c experiment.Config) ([]*experiment.Table, error) { return one(experiment.Fig9(c)) }},
	{"a1", func(c experiment.Config) ([]*experiment.Table, error) {
		return one(experiment.AblationPenaltyFactor(c, []float64{1.0, 1.25, 1.5, 2.0}))
	}},
	{"a2", func(c experiment.Config) ([]*experiment.Table, error) {
		return one(experiment.AblationAlpha(c, []float64{0.5, 0.7, 0.9, 1.0}))
	}},
	{"a3", func(c experiment.Config) ([]*experiment.Table, error) {
		return one(experiment.AblationWindow(c, []experiment.WindowPoint{
			{W: 3, Thresh: 12}, {W: 5, Thresh: 10}, {W: 5, Thresh: 20}, {W: 10, Thresh: 40},
		}))
	}},
	{"a4", func(c experiment.Config) ([]*experiment.Table, error) {
		return one(experiment.AblationAttemptVerification(c))
	}},
	{"a5", func(c experiment.Config) ([]*experiment.Table, error) {
		return one(experiment.AblationReceiverMisbehavior(c))
	}},
	{"a6", func(c experiment.Config) ([]*experiment.Table, error) {
		return one(experiment.AblationAdaptiveThresh(c))
	}},
	{"a7", func(c experiment.Config) ([]*experiment.Table, error) { return one(experiment.AblationBasicAccess(c)) }},
	{"hidden", func(c experiment.Config) ([]*experiment.Table, error) { return one(experiment.ExtHiddenTerminal(c)) }},
	{"faults", func(c experiment.Config) ([]*experiment.Table, error) {
		t, _, err := experiment.ExtFaultTolerance(c, experiment.SweepOptions{})
		return one(t, err)
	}},
	{"validate", func(c experiment.Config) ([]*experiment.Table, error) { return one(analytic.ValidateAgainstModel(c)) }},
}

// wantTableDigests pins the SHA-256 of every rendered table at
// tinyConfig, in the order each generator returns its tables. They were
// recorded when each generator still ran one point at a time.
var wantTableDigests = map[string][]string{
	"fig4": {"b2a6c18825d158db539f58a6b7c9daeb26014bf3b7903ec0856350be44338942"},
	"fig5+delay": {
		"44f8b90cc9774641bfe6b5685cfcc81319812eb64f21669d8f4df70338a38675",
		"f6f873b96d7c963300de8f2ea51d4d71d82d84ff9126e172648fceb6af12c741",
	},
	"fig6+7": {
		"6ff1d2180b6bb7efb069d35a6f2cee670a85daa790a01dad5a328bc5fd436e79",
		"867acfd11a050a7710f1038ee36aefbc351edafe2a7e45dad458f4b0aec2c533",
	},
	"fig8":     {"beb53b126486c219482b68998744ba1845686a5b7c6fe3010278a062908b2bf8"},
	"fig9":     {"fb92ced9b3ef78f0114f8fe4785f80d2d67534cc04a136b1826ce6419ae7fd60"},
	"a1":       {"f8cb263d622181c641795b5c129f0ec09762d0f0a4d8be4a346f58a9e953fa81"},
	"a2":       {"75ff87ff12ae80229dec83e2ecba01778ce05e8bc45c05129512f411c8fc7367"},
	"a3":       {"0a1b917b861aae306761ca787a32b937df40c09413b12149f1240fe2c557fc25"},
	"a4":       {"bb461422dd5134fcae808346714cdd7eff64d085fb35ad5dd846c54216bb5e72"},
	"a5":       {"7b849d0bb56013e5fcaa213438d394f9aa463b4c1118ecae1d20ff169e972303"},
	"a6":       {"99d15422179a4f47c7567f8471ac2b8a7d29a79674460249de56c772c2f45544"},
	"a7":       {"98c86500215d54a492a73dbdf982ecfd4378b3205c190183e5bfb06d699bd0cd"},
	"hidden":   {"448375c5a7008d664767f22cd6fe0e2a0470db9fcf475751ba10d6832beed643"},
	"faults":   {"24ece4c228d98c31410989d651430c29c80e6bc12d7bb69c7ad39394f97d7f33"},
	"validate": {"a18ffa0f8c2442e31f82b59ed643995200ddccf3e101c3ba0c033ae35043d0ee"},
}

func renderDigests(tables []*experiment.Table) []string {
	out := make([]string, len(tables))
	for i, t := range tables {
		sum := sha256.Sum256([]byte(t.Render()))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestGeneratorTablesPinnedAcrossWorkerCounts: every table is a pure
// function of its configuration, whatever the number of workers the
// shared pool runs the generator's cells on.
func TestGeneratorTablesPinnedAcrossWorkerCounts(t *testing.T) {
	procs := []int{1, 2, 3}
	if testing.Short() {
		procs = []int{3}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range procs {
		runtime.GOMAXPROCS(n)
		for _, g := range generators {
			tables, err := g.run(tinyConfig())
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s: %v", n, g.name, err)
			}
			got := renderDigests(tables)
			want := wantTableDigests[g.name]
			if len(got) != len(want) {
				t.Errorf("GOMAXPROCS=%d %s: %d tables, want %d (digests %q)", n, g.name, len(got), len(want), got)
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("GOMAXPROCS=%d %s table %d: digest %s, want %s\n%s",
						n, g.name, i, got[i], want[i], tables[i].Render())
				}
			}
		}
	}
}
