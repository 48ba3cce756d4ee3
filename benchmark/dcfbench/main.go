// Command dcfbench is the repository's benchmark: five workloads that
// drive the DCF simulator and the sweep daemon through their public
// functions, time what a user waits for, and check every output against
// an oracle. With -trace 1 it runs a separate traced pass instead that
// reports each layer's work, self time and replay cost.
//
//	go run ./dcfbench -workload fig4-paper -seed 1 -seconds 15 -trace 0
//	go run ./dcfbench -seed 1              # every workload, one child process each
//
// Run from the benchmark directory (its own module) or through
// benchmark/run.sh from the repository root. The last line printed is
// the result object: {"correct", "attempted", "failed", "metrics"}.
// See benchmark/README.md.
package main

//detlint:allow-package wallclock -- a benchmark's job is to read the host clock: it times runs, setup and daemon jobs from outside the simulation, and no reading ever reaches simulation state.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the same
// names (pinned by a test).
type metricDef struct{ name, unit string }

// endToEnd are what a user of the simulator or the daemon sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_latency_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// tailLatency is reported beside the end-to-end metrics but not in the
// result: a rep's 90th percentile has ten samples beyond it only on
// daemon-sweep, and on the others it swings with the rep's one or two
// slowest operations.
var tailLatency = metricDef{"op_latency_p90_ms", "ms"}

// perLayer are the traced pass's metrics, one group per module layer.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.ns_per_event", "ns"},
	{"sim.self_s", "s"},
	{"sim.barrier_wait_frac", "frac"},
	{"sim.windows", "count"},
	{"sim.shard_imbalance", "ratio"},
	{"medium.transmissions", "count"},
	{"medium.collision_ratio", "frac"},
	{"medium.ns_per_tx", "ns"},
	{"medium.self_s", "s"},
	{"mac.tx_success", "count"},
	{"mac.attempts_mean", "count"},
	{"mac.self_s", "s"},
	{"core.packets", "count"},
	{"core.deviation_ratio", "frac"},
	{"core.ns_per_packet", "ns"},
	{"core.self_s", "s"},
	{"faults.drops", "count"},
	{"faults.self_s", "s"},
	{"rng.self_s", "s"},
	{"obs.records", "count"},
	{"obs.ns_per_record", "ns"},
	{"obs.explain_s", "s"},
	{"obs.prom_render_ms", "ms"},
	{"obs.jsonl_mb", "MB"},
	{"obs.self_s", "s"},
	{"experiment.setup_ms_per_run", "ms"},
	{"experiment.cpu_util", "frac"},
	{"experiment.self_s", "s"},
	{"serve.admit_ms", "ms"},
	{"serve.first_cell_ms", "ms"},
	{"serve.overhead_ms_per_cell", "ms"},
	{"serve.cells_retried", "count"},
	{"serve.self_s", "s"},
	{"atomicio.write_ms_p50", "ms"},
	{"atomicio.write_ms_p90", "ms"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.self_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"trace.profile_other_frac", "frac"},
}

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
	sc       scale
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line printed: the benchmark's verdict.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricReport is one metric with its samples' summary.
type metricReport struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	summary
}

// host is the fingerprint and provenance every report carries.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit"`
	// RefLoopMS is how long a fixed integer loop took at the start of
	// the run: on a shared host it tracks part of the drift in speed
	// between runs, which comparisons of far-apart runs should weigh.
	RefLoopMS float64 `json:"ref_loop_ms"`
}

// report is the full record of one run, written to -out and printed
// before the result line.
type report struct {
	Workload string         `json:"workload"`
	Traced   bool           `json:"traced"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Host     host           `json:"host"`
	Metrics  []metricReport `json:"metrics"`
	// TailPercentile is the highest of p99, p90 and p50 with at least
	// ten operation latencies beyond it (0: none); a reported percentile
	// above it rests on fewer samples.
	TailPercentile int      `json:"tail_percentile,omitempty"`
	Failures       []string `json:"failures,omitempty"`
	Result         result   `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("dcfbench", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every run's inputs derive from")
	seconds := fs.Float64("seconds", 15, "how long the timed reps (or, traced, the profiled reps) run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass for the per-layer metrics instead of timing")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for scratch files, profiles and reports")
	fs.Parse(os.Args[1:])
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "dcfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o := options{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, out: *out, sc: fullScale,
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "dcfbench:", err)
		os.Exit(1)
	}
}

// run runs one workload, timed or traced, and returns its report.
func run(o options) (report, error) {
	e := env{seed: o.seed, dir: filepath.Join(o.out, o.workload), sc: o.sc}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return report{}, err
	}
	w, err := newWorkload(o.workload, e)
	if err != nil {
		return report{}, err
	}
	rep := report{Workload: o.workload, Traced: o.trace, Seed: o.seed, Seconds: o.seconds.Seconds(), Host: fingerprint()}
	err = w.prepare()
	if err == nil {
		if o.trace {
			err = tracedRun(w, e, o, &rep)
		} else {
			err = timedRun(w, o, &rep)
		}
	}
	return rep, errors.Join(err, w.close())
}

// timedRun measures the end-to-end metrics: setup several times, then
// reps until the time budget is spent.
func timedRun(w workload, o options, rep *report) error {
	// One untimed build first: the samples should time world building,
	// not a fresh process faulting in its first heap pages.
	if _, err := w.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	var setups []float64
	for i := 0; i < o.sc.setupSamples; i++ {
		var took time.Duration
		n := 0
		for start := time.Now(); n == 0 || time.Since(start) < o.sc.minSetup; n++ {
			d, err := w.setup()
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			took += d
		}
		setups = append(setups, took.Seconds()/float64(n))
	}
	runtime.GC()
	reps, err := measure(w, o.seconds, o.sc.minReps)
	if err != nil {
		return err
	}
	var walls, lats, repP90s []float64
	res := result{Metrics: map[string]metricValue{}}
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		var repLats []float64
		for _, op := range r.ops {
			res.Attempted++
			if op.err != nil {
				res.Failed++
				rep.Failures = append(rep.Failures, op.err.Error())
				continue
			}
			repLats = append(repLats, float64(op.lat)/1e6)
		}
		lats = append(lats, repLats...)
		if len(repLats) > 0 {
			repP90s = append(repP90s, percentile(repLats, 90))
		}
	}
	latSum := summarize(lats)
	rep.TailPercentile = reportablePercentile(len(lats))
	rss := maxRSS()
	rep.Metrics = []metricReport{
		{Name: "setup_s", Value: median(setups), summary: summarize(setups)},
		{Name: "wall_s", Value: median(walls), summary: summarize(walls)},
		{Name: "op_latency_p50_ms", Value: latSum.Median, summary: latSum},
		{Name: "max_rss_mb", Value: rss, summary: summarize([]float64{rss})},
		// The tail's spread is that of each rep's own 90th percentile.
		{Name: tailLatency.name, Unit: tailLatency.unit, Value: median(repP90s), summary: summarize(repP90s)},
	}
	finish(rep, res, endToEnd)
	return nil
}

// tracedRun measures the per-layer metrics.
func tracedRun(w workload, e env, o options, rep *report) error {
	lv, err := traced(w, e, o.seconds)
	if err != nil {
		return err
	}
	res := result{Attempted: lv.ops, Failed: len(lv.failures), Metrics: map[string]metricValue{}}
	rep.Failures = lv.failures
	for _, m := range perLayer {
		v := lv.vals[m.name]
		s := summarize([]float64{v})
		if xs := lv.samples[m.name]; len(xs) > 0 {
			s = summarize(xs)
		}
		rep.Metrics = append(rep.Metrics, metricReport{Name: m.name, Value: v, summary: s})
	}
	finish(rep, res, perLayer)
	return nil
}

// finish fills in the units of defs and puts those metrics into the
// result; a value that is not finite (no samples) reads 0.
func finish(rep *report, res result, defs []metricDef) {
	for i := range rep.Metrics {
		m := &rep.Metrics[i]
		for _, x := range []*float64{&m.Value, &m.Median, &m.Q1, &m.Q3} {
			if math.IsNaN(*x) || math.IsInf(*x, 0) {
				*x = 0
			}
		}
		for _, d := range defs {
			if d.name == m.Name {
				m.Unit = d.unit
				res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rep.Result = res
}

// measure runs reps until budget has passed — stopping early rather
// than starting a rep it would overrun by more than half — and never
// fewer than minReps.
func measure(w workload, budget time.Duration, minReps int) ([]repOut, error) {
	var reps []repOut
	start := time.Now()
	for {
		r, err := w.rep()
		if err != nil {
			return reps, err
		}
		reps = append(reps, r)
		if len(reps) >= minReps && time.Since(start)+r.wall/2 >= budget {
			return reps, nil
		}
	}
}

// writeReport prints the metrics for a reader, the report as one JSON
// line, and the result as the last line; the report is also saved under
// -out.
func writeReport(wr io.Writer, o options, rep report) error {
	for _, m := range rep.Metrics {
		fmt.Fprintf(wr, "%-16s %-28s %14.6g %-5s  median %.6g  q1 %.6g  q3 %.6g  n=%d\n",
			rep.Workload, m.Name, m.Value, m.Unit, m.Median, m.Q1, m.Q3, m.N)
	}
	const maxShown = 20
	for i, f := range rep.Failures {
		if i == maxShown {
			fmt.Fprintf(wr, "FAIL … and %d more\n", len(rep.Failures)-maxShown)
			break
		}
		fmt.Fprintln(wr, "FAIL", f)
	}
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	last, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	suffix := ""
	if rep.Traced {
		suffix = "-trace"
	}
	path := filepath.Join(o.out, rep.Workload+suffix+".json")
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintf(wr, "%s\n%s\n", full, last)
	return err
}

// runAll runs every workload in its own child process, one at a time,
// so each has its own heap, RSS and GC state, and prints a combined
// result last. It fails when a child could not run to a result.
func runAll(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcfbench:", err)
		return 1
	}
	type combined struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Workloads map[string]result `json:"workloads"`
	}
	all := combined{Correct: true, Workloads: map[string]result{}}
	status := 0
	for _, name := range workloadNames {
		var buf bytes.Buffer
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds.Seconds(), 'g', -1, 64),
			"-trace", map[bool]string{false: "0", true: "1"}[o.trace], "-out", o.out)
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		var res result
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "dcfbench: %s: %v\n", name, err)
			all.Correct, status = false, 1
			continue
		}
		if err := json.Unmarshal(lastLine(buf.Bytes()), &res); err != nil {
			fmt.Fprintf(os.Stderr, "dcfbench: %s: reading result: %v\n", name, err)
			all.Correct, status = false, 1
			continue
		}
		all.Workloads[name] = res
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcfbench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return status
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

func fingerprint() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit(),
		RefLoopMS:  refLoop(),
	}
}

var refSink uint64

// refLoop times 2^21 rounds of a multiply-add-xorshift loop, best of three,
// in milliseconds. It touches no memory, so it reads the CPU's speed
// alone; it is the benchmark's own code, identical on both sides of a
// comparison.
func refLoop() float64 {
	best := time.Duration(math.MaxInt64)
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		x := uint64(k)
		for i := uint64(0); i < 1<<21; i++ {
			x = x*6364136223846793005 + i
			x ^= x >> 29
		}
		refSink += x
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best) / 1e6
}

// commitFile, at the root of an unpacked source tree, names the commit
// the tree was unpacked from; compare.sh writes it into each side.
const commitFile = ".bench_commit"

// commit names the source the binary was built from: the VCS stamp Go
// embeds, else the checkout's commitFile, else `git rev-parse HEAD` in
// the checkout, else "unknown". The checkout is the working directory,
// or its parent when run from benchmark/.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	root := "."
	if _, err := os.Stat(filepath.Join("dcfbench", "main.go")); err == nil {
		root = ".."
	}
	if b, err := os.ReadFile(filepath.Join(root, commitFile)); err == nil {
		if rev := strings.TrimSpace(string(b)); rev != "" {
			return rev
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}
