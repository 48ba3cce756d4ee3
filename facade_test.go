package dcfguard

import (
	"slices"
	"strings"
	"testing"
)

// minimal is the smallest config that still produces classifications:
// one seed and one point per sweep, below the table goldens' two of
// each.
func minimal() Config {
	cfg := QuickConfig()
	cfg.Duration = 1 * Second
	cfg.Seeds = Seeds(1)
	cfg.PMs = []int{80}
	cfg.NetworkSizes = []int{2}
	cfg.Fig8PMs = []int{80}
	cfg.FERs = []float64{0.2}
	return cfg
}

// TestAllFigureWrappers runs every entry of the façade's figure
// catalogue at minimal scale: each must return one non-empty,
// renderable table per file it names. A one-table entry is checked
// under its -fig name; an entry that returns several tables (Figure 5
// with the delay table, Figures 6 and 7) gets one subtest per table,
// named by its file, so each figure reports on its own.
func TestAllFigureWrappers(t *testing.T) {
	cfg := minimal()
	for _, f := range Figures {
		tables, err := f.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if len(tables) != len(f.Files) {
			t.Fatalf("%s: %d tables for files %v", f.Name, len(tables), f.Files)
		}
		for i, tb := range tables {
			name := f.Name
			if len(tables) > 1 {
				name = f.Files[i]
			}
			t.Run(name, func(t *testing.T) {
				if len(tb.Rows) == 0 {
					t.Fatal("empty table")
				}
				if out := tb.Render(); !strings.Contains(out, "|") {
					t.Fatalf("render produced %q", out)
				}
				if csv := tb.CSV(); !strings.Contains(csv, ",") {
					t.Fatalf("CSV produced %q", csv)
				}
			})
		}
	}
}

// TestFig5WithDelayWrapper: catalogue entry 5 returns the Figure-5
// table and, from the same sweep, the delay table.
func TestFig5WithDelayWrapper(t *testing.T) {
	i := slices.IndexFunc(Figures, func(f Figure) bool { return f.Name == "5" })
	if i < 0 {
		t.Fatal("no catalogue entry 5")
	}
	tables, err := Figures[i].Run(minimal())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables, want Figure 5 and delay", len(tables))
	}
	t5, tD := tables[0], tables[1]
	if len(t5.Rows) == 0 || len(tD.Rows) == 0 {
		t.Fatal("empty tables")
	}
	if !strings.Contains(tD.Title, "delay") {
		t.Fatalf("delay title = %q", tD.Title)
	}
}

func TestRunAllWrapperAndCSV(t *testing.T) {
	s := DefaultScenario()
	s.Duration = 1 * Second
	results, err := RunAll(s, Seeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if csv := ResultsCSV(results); !strings.Contains(csv, "zero-flow,1,") {
		t.Fatalf("ResultsCSV missing rows:\n%s", csv)
	}
	if csv := PerSenderCSV(results); !strings.Contains(csv, "sender") {
		t.Fatalf("PerSenderCSV missing header:\n%s", csv)
	}
}

func TestTraceThroughFacade(t *testing.T) {
	s := DefaultScenario()
	s.Duration = 100 * Millisecond
	s.TraceEvents = 20
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil || r.Trace.Len() == 0 {
		t.Fatal("no trace through façade")
	}
	if txt := r.Trace.Text(); !strings.Contains(txt, "RTS") {
		t.Fatalf("trace text missing frames:\n%s", txt)
	}
}
