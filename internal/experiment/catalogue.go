package experiment

import (
	"fmt"
	"slices"
	"strings"
)

// Figure is one entry of the figure catalogue: a table generator with
// the arguments the evaluation runs it at.
type Figure struct {
	// Name is the figure's `figures -fig` name; Aliases are the other
	// spellings the docs use for it.
	Name    string
	Aliases []string
	// Files names the tables Run returns, in order: cmd/figures writes
	// table i as Files[i].txt and Files[i].csv.
	Files []string
	// Run generates the tables, all from one plan on cfg.Sweep.
	Run func(cfg Config) ([]*Table, error)
}

// Figures is the figure catalogue, in the order `figures -fig all`
// emits it: Figures 4-9, the ablations A1-A7, the extension
// experiments, and the check of the DCF substrate against the analytic
// model.
var Figures = []Figure{
	{Name: "4", Files: []string{"fig4"}, Run: one(Fig4)},
	{Name: "5", Aliases: []string{"delay", "5+delay"}, Files: []string{"fig5", "ext-delay"}, Run: two(Fig5WithDelay)},
	{Name: "6", Aliases: []string{"7", "6+7"}, Files: []string{"fig6", "fig7"}, Run: two(Fig6And7)},
	{Name: "8", Files: []string{"fig8"}, Run: one(Fig8)},
	{Name: "9", Files: []string{"fig9"}, Run: one(Fig9)},
	{Name: "a1", Files: []string{"ablation-a1-penalty"}, Run: one(func(cfg Config) (*Table, error) {
		return AblationPenaltyFactor(cfg, []float64{1.0, 1.25, 1.5, 2.0})
	})},
	{Name: "a2", Files: []string{"ablation-a2-alpha"}, Run: one(func(cfg Config) (*Table, error) {
		return AblationAlpha(cfg, []float64{0.5, 0.7, 0.9, 1.0})
	})},
	{Name: "a3", Files: []string{"ablation-a3-window"}, Run: one(func(cfg Config) (*Table, error) {
		return AblationWindow(cfg, []WindowPoint{
			{W: 3, Thresh: 12}, {W: 5, Thresh: 10}, {W: 5, Thresh: 20}, {W: 10, Thresh: 40},
		})
	})},
	{Name: "a4", Files: []string{"ablation-a4-attempts"}, Run: one(AblationAttemptVerification)},
	{Name: "a5", Files: []string{"ablation-a5-receiver"}, Run: one(AblationReceiverMisbehavior)},
	{Name: "a6", Files: []string{"ablation-a6-adaptive"}, Run: one(AblationAdaptiveThresh)},
	{Name: "a7", Files: []string{"ablation-a7-basic-access"}, Run: one(AblationBasicAccess)},
	{Name: "hidden", Files: []string{"ext-hidden-terminal"}, Run: one(ExtHiddenTerminal)},
	{Name: "faults", Files: []string{"ext-fault-tolerance"}, Run: one(ExtFaultTolerance)},
	{Name: "validate", Files: []string{"validate-bianchi"}, Run: one(ValidateAgainstModel)},
}

func one(gen func(Config) (*Table, error)) func(Config) ([]*Table, error) {
	return func(cfg Config) ([]*Table, error) {
		t, err := gen(cfg)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

func two(gen func(Config) (*Table, *Table, error)) func(Config) ([]*Table, error) {
	return func(cfg Config) ([]*Table, error) {
		a, b, err := gen(cfg)
		if err != nil {
			return nil, err
		}
		return []*Table{a, b}, nil
	}
}

// SelectFigures resolves a `figures -fig` argument: "all" is the whole
// catalogue, "none" nothing, and otherwise a comma list of names and
// aliases, resolved in list order. A figure named twice, under any of
// its spellings, is listed once.
func SelectFigures(spec string) ([]Figure, error) {
	switch spec {
	case "all":
		return Figures, nil
	case "none":
		return nil, nil
	}
	var out []Figure
	for _, name := range strings.Split(spec, ",") {
		i := slices.IndexFunc(Figures, func(f Figure) bool {
			return f.Name == name || slices.Contains(f.Aliases, name)
		})
		if i < 0 {
			return nil, fmt.Errorf("unknown figure %q", name)
		}
		if !slices.ContainsFunc(out, func(f Figure) bool { return f.Name == Figures[i].Name }) {
			out = append(out, Figures[i])
		}
	}
	return out, nil
}
