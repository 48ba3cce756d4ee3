package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The compare subcommand reads the paired runs benchmark/compare.sh
// makes and judges them by the rule for a small sandbox: a gain needs
// the change to win at least nine in ten pairs, with medians further
// apart than the parent's interquartile range; a regression is a median
// worse than the parent's by more than the metric's bound. Counts the
// simulator computes must not move at all.

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// deterministicCounts are the per-layer metrics that are simulated
// statistics: a change to the simulator's speed must leave them equal.
var deterministicCounts = []string{
	"sim.events", "sim.windows", "medium.transmissions", "medium.collision_ratio",
	"mac.tx_success", "mac.attempts_mean", "core.packets", "core.deviation_ratio",
	"faults.drops", "obs.records",
}

// verdict judges one metric of one workload over paired runs (base[i]
// and head[i] ran back to back on the same seed).
type verdict struct {
	base, head summary
	wins, n    int
	kind       string // gain, better, unresolved, regression, no change
}

func judge(base, head []float64, lowerBetter bool, bound float64) verdict {
	v := verdict{base: summarize(base), head: summarize(head), n: len(base)}
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	allBetter := len(base) > 0
	for i := range base {
		if better(head[i], base[i]) {
			v.wins++
		}
	}
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	iqr := v.base.Q3 - v.base.Q1
	gap := v.head.Median - v.base.Median
	if gap < 0 {
		gap = -gap
	}
	worseBy := ratio(v.head.Median-v.base.Median, v.base.Median)
	if !lowerBetter {
		worseBy = -worseBy
	}
	spread := func(s summary) float64 { return ratio(s.Q3-s.Q1, s.Median) }
	switch {
	case v.n > 0 && v.wins*10 >= 9*v.n && gap > iqr && better(v.head.Median, v.base.Median):
		v.kind = "gain"
	case allBetter:
		v.kind = "better"
	case spread(v.base) > bound || spread(v.head) > bound:
		v.kind = "unresolved"
	case worseBy > bound:
		v.kind = "regression"
	default:
		v.kind = "no change"
	}
	return v
}

func compareMain(args []string, w io.Writer) int {
	flags := flag.NewFlagSet("dcfbench compare", flag.ExitOnError)
	specPath := flags.String("bench", "BENCHMARK.json", "the benchmark definition (bounds and directions)")
	flags.Usage = func() {
		fmt.Fprintln(flags.Output(), "usage: dcfbench compare [-bench BENCHMARK.json] DIR")
		fmt.Fprintln(flags.Output(), "DIR holds base/ and head/, each with <workload>.jsonl (one result line per pair) and <workload>.trace.json.")
		flags.PrintDefaults()
	}
	flags.Parse(args)
	if flags.NArg() != 1 {
		flags.Usage()
		return 2
	}
	dir := flags.Arg(0)
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcfbench compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "dcfbench compare:", err)
		return 2
	}
	bad := false
	fmt.Fprintf(w, "%-17s %-18s %-30s %-30s %-6s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range spec.Workloads {
		base, err1 := readResults(filepath.Join(dir, "base", wl.Name+".jsonl"))
		head, err2 := readResults(filepath.Join(dir, "head", wl.Name+".jsonl"))
		if errors.Is(err1, fs.ErrNotExist) && errors.Is(err2, fs.ErrNotExist) {
			continue // workload not run
		}
		if err := errors.Join(err1, err2); err != nil {
			fmt.Fprintf(w, "%-17s (skipped: %v)\n", wl.Name, err)
			continue
		}
		if len(base) != len(head) {
			fmt.Fprintf(w, "%-17s (skipped: %d parent runs, %d change runs)\n", wl.Name, len(base), len(head))
			continue
		}
		failB, failH := 0, 0
		for i := range base {
			failB += base[i].Failed
			failH += head[i].Failed
		}
		for _, m := range spec.EndToEnd {
			var b, h []float64
			for i := range base {
				b = append(b, base[i].Metrics[m.Name].Value)
				h = append(h, head[i].Metrics[m.Name].Value)
			}
			v := judge(b, h, m.Better == "lower", m.Bound)
			kind := v.kind
			if kind == "gain" && failH > failB {
				kind = "no gain: more failures"
			}
			bad = bad || kind == "regression"
			fmt.Fprintf(w, "%-17s %-18s %-30s %-30s %2d/%-3d %s\n", wl.Name, m.Name,
				fmtSummary(v.base), fmtSummary(v.head), v.wins, v.n, kind)
		}
		if failH > failB {
			bad = true
			fmt.Fprintf(w, "%-17s failures: parent %d, change %d\n", wl.Name, failB, failH)
		}
		moved, err := countsMoved(filepath.Join(dir, "base", wl.Name+".trace.json"), filepath.Join(dir, "head", wl.Name+".trace.json"))
		switch {
		case err != nil:
			fmt.Fprintf(w, "%-17s counts: not compared (%v)\n", wl.Name, err)
		case len(moved) > 0:
			bad = true
			fmt.Fprintf(w, "%-17s COUNTS MOVED: %s\n", wl.Name, strings.Join(moved, ", "))
		default:
			fmt.Fprintf(w, "%-17s counts: identical\n", wl.Name)
		}
	}
	if bad {
		return 1
	}
	return 0
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}

// readResults reads one result object per non-empty line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// countsMoved lists the deterministic counts whose traced values differ
// between the two runs.
func countsMoved(basePath, headPath string) ([]string, error) {
	base, err := readResults(basePath)
	if err != nil {
		return nil, err
	}
	head, err := readResults(headPath)
	if err != nil {
		return nil, err
	}
	if len(base) != 1 || len(head) != 1 {
		return nil, fmt.Errorf("want one traced result per side")
	}
	var moved []string
	for _, name := range deterministicCounts {
		b, h := base[0].Metrics[name].Value, head[0].Metrics[name].Value
		if b < h || b > h {
			moved = append(moved, fmt.Sprintf("%s %g → %g", name, b, h))
		}
	}
	sort.Strings(moved)
	return moved, nil
}
