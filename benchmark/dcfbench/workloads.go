package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcfguard"
	"dcfguard/internal/analytic"
	"dcfguard/internal/experiment"
	"dcfguard/internal/frame"
	"dcfguard/internal/obs"
	"dcfguard/internal/sim"
)

// parallelism is the worker, shard and connection count every workload
// uses: the CPU count the workloads are sized for. It is a constant, not
// the machine's CPU count, so that a rep does the same work anywhere.
const parallelism = 2

// cell is one simulation run.
type cell struct {
	s    experiment.Scenario
	seed uint64
}

// cellSet lists the simulation runs one rep makes and how it makes
// them. Setup builds exactly these worlds, and the traced pass re-runs
// them with the metrics registry on to count each layer's work.
type cellSet struct {
	cells []cell
	// workers is the parallelism the rep runs the cells at.
	workers int
	// repeat is how many times one rep runs the whole list (the daemon
	// runs the same cells once per job).
	repeat int
}

// op is one operation of a rep — a figure point, a simulation run, a
// forensic job or a daemon job — with its latency and, when it failed,
// why: an error, a panic or an oracle violation.
type op struct {
	lat time.Duration
	err error
}

// repOut is what one rep did.
type repOut struct {
	// wall is the rep's host time, oracle checks excluded.
	wall time.Duration
	ops  []op
	// events is the kernel events the rep's simulation runs fired.
	events uint64
	// samples are per-layer measurements taken inside the rep, by
	// metric name.
	samples map[string][]float64
}

func (r *repOut) sample(name string, v float64) {
	if r.samples == nil {
		r.samples = map[string][]float64{}
	}
	r.samples[name] = append(r.samples[name], v)
}

// subject is the representative run of a workload that the traced pass
// records and replays layer by layer.
type subject struct {
	cell
	// obs also captures every trace record and replays them through
	// fresh sinks.
	obs bool
}

// workload is one benchmark input set.
type workload interface {
	cellSet() cellSet
	// prepare computes the oracles' references once, untimed.
	prepare() error
	// setup builds the workload's worlds once and returns how long the
	// part a user waits for took.
	setup() (time.Duration, error)
	// rep runs one repetition of fixed work and checks its outputs.
	rep() (repOut, error)
	subject() subject
	close() error
}

// scale fixes how much work each workload's rep does. fullScale is the
// benchmark; the smoke test shrinks it.
type scale struct {
	fig4Duration      sim.Time
	fig4PMs           []int
	s400Seeds         int
	s400Duration      sim.Time
	s4kNodes          int
	s4kDuration       sim.Time
	forensicsDuration sim.Time
	jobs              int
	cellDuration      string
	// setupSamples is how many setup_s samples a run takes; each sample
	// repeats the build until minSetup has passed and reports the mean.
	setupSamples int
	minSetup     time.Duration
	// minReps is the fewest timed reps a run makes, however long a rep,
	// so that the median outvotes one slow rep.
	minReps int
}

var fullScale = scale{
	fig4Duration: 50 * sim.Second,
	fig4PMs:      []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
	s400Seeds:    10,
	s400Duration: sim.Second,
	s4kNodes:     4000,
	s4kDuration:  200 * sim.Millisecond,
	// Not the paper's 50 s: the job holds every trace record in memory,
	// and at 50 s it peaks above 1 GB resident.
	forensicsDuration: 10 * sim.Second,
	jobs:              100,
	cellDuration:      "500ms",
	setupSamples:      9,
	minSetup:          200 * time.Millisecond,
	minReps:           3,
}

// env is what every workload is built from.
type env struct {
	seed uint64
	// dir is the workload's scratch directory.
	dir string
	sc  scale
}

var workloadNames = []string{"fig4-paper", "scale-400", "scale-4k-sharded", "forensics-star", "daemon-sweep"}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "fig4-paper":
		return newFig4Paper(e), nil
	case "scale-400":
		return newScale400(e), nil
	case "scale-4k-sharded":
		return newScale4k(e), nil
	case "forensics-star":
		return newForensicsStar(e), nil
	case "daemon-sweep":
		return newDaemonSweep(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// safely runs f, turning a panic into an error.
func safely(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// runCells runs every cell of cs once, at its parallelism, and times
// each run as one op. A positive d overrides each scenario's duration
// and a non-nil o its observability config.
func runCells(cs cellSet, d sim.Time, o *obs.Config) ([]experiment.Result, []op, time.Duration) {
	results := make([]experiment.Result, len(cs.cells))
	ops := make([]op, len(cs.cells))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cs.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cs.cells[i]
				s := c.s
				if d > 0 {
					s.Duration = d
				}
				if o != nil {
					s.Observe = o
				}
				t0 := time.Now()
				err := safely(func() (err error) {
					results[i], err = experiment.Run(s, c.seed)
					return err
				})
				ops[i] = op{lat: time.Since(t0), err: err}
			}
		}()
	}
	for i := range cs.cells {
		next <- i
	}
	close(next)
	wg.Wait()
	return results, ops, time.Since(start)
}

// buildWorlds is the scenario workloads' setup: every cell run for one
// simulated microsecond, which builds its world and fires almost nothing.
func buildWorlds(cs cellSet) (time.Duration, error) {
	_, ops, wall := runCells(cs, sim.Microsecond, nil)
	for _, o := range ops {
		if o.err != nil {
			return wall, o.err
		}
	}
	return wall, nil
}

// resultSum is a checksum of everything a run reports.
func resultSum(r experiment.Result) uint64 {
	h := fnv.New64a()
	rs := []experiment.Result{r}
	h.Write([]byte(experiment.ResultsCSV(rs)))
	h.Write([]byte(experiment.PerSenderCSV(rs)))
	return h.Sum64()
}

// --- fig4-paper ---------------------------------------------------------

// fig4Paper regenerates Figure 4 at the paper's per-run settings with
// one seed per point, plus an honest 802.11 saturation run checked
// against the Bianchi model.
type fig4Paper struct {
	e       env
	cfg     experiment.Config
	bianchi experiment.Scenario
}

func newFig4Paper(e env) *fig4Paper {
	cfg := experiment.DefaultConfig()
	cfg.Duration = e.sc.fig4Duration
	cfg.Seeds = []uint64{e.seed}
	cfg.PMs = e.sc.fig4PMs
	b := experiment.DefaultScenario()
	b.Name = "bianchi-802.11"
	b.Duration = cfg.Duration
	b.Protocol = experiment.Protocol80211
	b.Topo = experiment.StarTopo(8, false)
	b.Channel = cfg.Channel
	return &fig4Paper{e: e, cfg: cfg, bianchi: b}
}

// cellSet mirrors the runs experiment.Fig4 makes — per PM, the ZERO-
// and TWO-FLOW stars with node 3 misbehaving — and then the Bianchi
// run. With one seed per point Fig4 makes them one at a time. The
// traced pass checks the mirror: its event total must equal Fig4's.
func (w *fig4Paper) cellSet() cellSet {
	var cs []cell
	for _, pm := range w.cfg.PMs {
		for _, twoFlow := range []bool{false, true} {
			s := experiment.DefaultScenario()
			s.Name = "zero-flow"
			if twoFlow {
				s.Name = "two-flow"
			}
			s.Duration = w.cfg.Duration
			s.Topo = experiment.StarTopo(8, twoFlow, 3)
			s.Channel = w.cfg.Channel
			s.Protocol = experiment.ProtocolCorrect
			s.PM = pm
			cs = append(cs, cell{s, w.e.seed})
		}
	}
	cs = append(cs, cell{w.bianchi, w.e.seed})
	return cellSet{cells: cs, workers: 1, repeat: 1}
}

func (w *fig4Paper) prepare() error                { return nil }
func (w *fig4Paper) setup() (time.Duration, error) { return buildWorlds(w.cellSet()) }
func (w *fig4Paper) close() error                  { return nil }

// subject is the PM-80 ZERO-FLOW run, the figure's headline point.
func (w *fig4Paper) subject() subject {
	cs := w.cellSet().cells
	for _, c := range cs {
		if c.s.Name == "zero-flow" && c.s.PM == 80 {
			return subject{cell: c}
		}
	}
	return subject{cell: cs[0]}
}

// rep makes Fig4 one point at a time — the same runs in the same order
// as one call over every PM — so each point is an op with its latency.
func (w *fig4Paper) rep() (repOut, error) {
	var out repOut
	correct := map[int][2]float64{} // PM → ZERO-, TWO-FLOW correct%
	opAt := map[int]int{}
	start := time.Now()
	for _, pm := range w.cfg.PMs {
		cfg := w.cfg
		cfg.PMs = []int{pm}
		var t *experiment.Table
		t0 := time.Now()
		err := safely(func() (err error) {
			t, err = experiment.Fig4(cfg)
			return err
		})
		o := op{lat: time.Since(t0), err: err}
		if err == nil {
			out.events += t.Events
			var v [4]float64
			if v, o.err = fig4Point(t); o.err == nil {
				correct[pm] = [2]float64{v[0], v[2]}
				o.err = checkFig4Point(pm, v)
			}
		}
		opAt[pm] = len(out.ops)
		out.ops = append(out.ops, o)
	}
	t0 := time.Now()
	var r experiment.Result
	err := safely(func() (err error) {
		r, err = experiment.Run(w.bianchi, w.e.seed)
		return err
	})
	o := op{lat: time.Since(t0), err: err}
	out.wall = time.Since(start)
	if err == nil {
		out.events += r.EventsFired
		o.err = checkBianchi(w.bianchi, r)
	}
	out.ops = append(out.ops, o)

	lo, okLo := correct[20]
	hi, okHi := correct[80]
	if okLo && okHi && out.ops[opAt[80]].err == nil && (hi[0] < lo[0] || hi[1] < lo[1]) {
		out.ops[opAt[80]].err = fmt.Errorf("fig4: correct%% at PM 80 (%v) below PM 20 (%v)", hi, lo)
	}
	return out, nil
}

// fig4Point reads the one row of a single-PM Figure 4 table: ZERO-FLOW
// correct% and misdiagnosis%, then TWO-FLOW's. With one seed the
// "mean±CI" cells are the run's own values.
func fig4Point(t *experiment.Table) ([4]float64, error) {
	var v [4]float64
	if len(t.Rows) != 1 || len(t.Rows[0]) != 5 {
		return v, fmt.Errorf("fig4: want one 5-column row, have %v", t.Rows)
	}
	for i, c := range t.Rows[0][1:] {
		mean, _, _ := strings.Cut(c, "±")
		x, err := strconv.ParseFloat(mean, 64)
		if err != nil {
			return v, fmt.Errorf("fig4: cell %q: %w", c, err)
		}
		v[i] = x
	}
	return v, nil
}

// checkFig4Point holds the paper's Figure 4 claims for the ZERO-FLOW
// star: the misbehaver is diagnosed at PM ≥ 60 and honest nodes are
// almost never blamed.
func checkFig4Point(pm int, v [4]float64) error {
	switch {
	case v[1] > 1:
		return fmt.Errorf("fig4 PM %d: ZERO-FLOW misdiagnosis %.1f%% > 1%%", pm, v[1])
	case pm >= 60 && v[0] < 90:
		return fmt.Errorf("fig4 PM %d: ZERO-FLOW correct diagnosis %.1f%% < 90%%", pm, v[0])
	}
	return nil
}

// checkBianchi holds an honest saturated 802.11 star to within 15% of
// the analytical model's per-node throughput.
func checkBianchi(s experiment.Scenario, r experiment.Result) error {
	m := analytic.Model{N: 8, MAC: s.MAC, PayloadBytes: s.PayloadBytes, BitRate: s.BitRate}
	want := m.PerNodeKbps()
	if ratio := r.AvgHonestKbps / want; ratio < 0.85 || ratio > 1.15 {
		return fmt.Errorf("bianchi: %.1f Kbps/node simulated vs %.1f modelled (ratio %.3f)", r.AvgHonestKbps, want, ratio)
	}
	return nil
}

// --- scale-400 ----------------------------------------------------------

// scale400 is the 400-node sparse 802.11 topology over ten seeds: the
// kernel (queue, medium fan-out, counter RNG) without a monitor.
type scale400 struct {
	e    env
	cs   cellSet
	sums map[uint64]uint64 // seed → the first rep's result checksum
}

func newScale400(e env) *scale400 {
	s := dcfguard.BenchScenarioRandom400()
	s.Duration = e.sc.s400Duration
	var cs []cell
	for i := 0; i < e.sc.s400Seeds; i++ {
		cs = append(cs, cell{s, e.seed + uint64(i)})
	}
	return &scale400{e: e, cs: cellSet{cells: cs, workers: parallelism, repeat: 1}, sums: map[uint64]uint64{}}
}

func (w *scale400) cellSet() cellSet              { return w.cs }
func (w *scale400) prepare() error                { return nil }
func (w *scale400) setup() (time.Duration, error) { return buildWorlds(w.cs) }
func (w *scale400) close() error                  { return nil }
func (w *scale400) subject() subject              { return subject{cell: w.cs.cells[0]} }
func (w *scale400) rep() (repOut, error)          { return repeatable(w.cs, w.sums, nil) }

// repeatable runs the cells as ops and holds every run to the checksum
// its seed gave in the first rep (or in want, when that names the seed).
func repeatable(cs cellSet, sums, want map[uint64]uint64) (repOut, error) {
	results, ops, wall := runCells(cs, 0, nil)
	out := repOut{wall: wall, ops: ops}
	for i, r := range results {
		if ops[i].err != nil {
			continue
		}
		out.events += r.EventsFired
		seed := cs.cells[i].seed
		sum := resultSum(r)
		ref, ok := want[seed]
		if !ok {
			if ref, ok = sums[seed]; !ok {
				sums[seed] = sum
				continue
			}
		}
		if sum != ref {
			ops[i].err = fmt.Errorf("%s seed %d: result checksum %x, want %x", cs.cells[i].s.Name, seed, sum, ref)
		}
	}
	return out, nil
}

// --- scale-4k-sharded ---------------------------------------------------

// scale4k is the 4000-node 802.11 topology on two shards: the large
// queue working set, window barriers and cross-shard exchange.
type scale4k struct {
	e      env
	cs     cellSet
	sums   map[uint64]uint64
	serial map[uint64]uint64 // seed S's checksum from the serial kernel
}

func newScale4k(e env) *scale4k {
	s := dcfguard.BenchScenarioRandom4kV3()
	s.Topo = experiment.ScaledRandomTopo(e.sc.s4kNodes, e.sc.s4kNodes/8)
	s.Duration = e.sc.s4kDuration
	s.Shards = parallelism
	cs := []cell{{s, e.seed}, {s, e.seed + 1}}
	return &scale4k{e: e, cs: cellSet{cells: cs, workers: 1, repeat: 1}, sums: map[uint64]uint64{}}
}

func (w *scale4k) cellSet() cellSet              { return w.cs }
func (w *scale4k) setup() (time.Duration, error) { return buildWorlds(w.cs) }
func (w *scale4k) close() error                  { return nil }
func (w *scale4k) subject() subject              { return subject{cell: w.cs.cells[0]} }

// prepare runs seed S on the serial kernel: sharded results must be
// bit-identical to it.
func (w *scale4k) prepare() error {
	c := w.cs.cells[0]
	s := c.s
	s.Shards = 1
	r, err := experiment.Run(s, c.seed)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	w.serial = map[uint64]uint64{c.seed: resultSum(r)}
	return nil
}

func (w *scale4k) rep() (repOut, error) { return repeatable(w.cs, w.sums, w.serial) }

// --- forensics-star -----------------------------------------------------

// forensicsStar is the `macsim -explain all -trace-events all` job: the
// PM-80 ZERO-FLOW star under 20% frame errors with every trace category
// into a JSONL file, a diagnosis CSV and an in-memory capture, then the
// evidence chains behind every diagnosis and a Prometheus scrape.
type forensicsStar struct {
	e env
	s experiment.Scenario
}

func newForensicsStar(e env) *forensicsStar {
	s := experiment.DefaultScenario()
	s.Name = "forensics-pm80"
	s.PM = 80
	s.Duration = e.sc.forensicsDuration
	s.Faults.FER = 0.2
	return &forensicsStar{e: e, s: s}
}

func (w *forensicsStar) cellSet() cellSet {
	return cellSet{cells: []cell{{w.s, w.e.seed}}, workers: 1, repeat: 1}
}
func (w *forensicsStar) prepare() error                { return os.MkdirAll(w.dir(), 0o755) }
func (w *forensicsStar) setup() (time.Duration, error) { return buildWorlds(w.cellSet()) }
func (w *forensicsStar) close() error                  { return os.RemoveAll(w.dir()) }
func (w *forensicsStar) subject() subject {
	return subject{cell: cell{w.s, w.e.seed}, obs: true}
}
func (w *forensicsStar) dir() string { return filepath.Join(w.e.dir, "forensics") }

// forensicSuspect is the star's misbehaving sender, whom Explain must
// find at least one decision about.
const forensicSuspect frame.NodeID = 3

func (w *forensicsStar) rep() (repOut, error) {
	var out repOut
	tracePath := filepath.Join(w.dir(), "trace.jsonl")
	diagPath := filepath.Join(w.dir(), "diagnosis.csv")
	jsonl := obs.NewJSONLSink(tracePath)
	diag := obs.NewDiagnosisCSV(diagPath)
	capture := obs.NewCaptureSink()
	reg := obs.NewRegistry()
	s := w.s
	s.Observe = &obs.Config{Registry: reg, Categories: obs.AllCategories(), Sinks: []obs.Sink{jsonl, diag, capture}}

	var recs []obs.Record
	var exps []obs.Explanation
	var prom bytes.Buffer
	var explainDur, promDur time.Duration
	start := time.Now()
	err := safely(func() error {
		r, err := experiment.Run(s, w.e.seed)
		if err != nil {
			return err
		}
		out.events = r.EventsFired
		if err := jsonl.Close(); err != nil {
			return err
		}
		if err := diag.Close(); err != nil {
			return err
		}
		t0 := time.Now()
		recs = capture.Records()
		exps = obs.Explain(recs, obs.NoNode)
		var text strings.Builder
		for _, e := range exps {
			text.WriteString(e.Text())
		}
		explainDur = time.Since(t0)
		t0 = time.Now()
		err = reg.WritePrometheus(&prom)
		promDur = time.Since(t0)
		return err
	})
	out.wall = time.Since(start)
	o := op{lat: out.wall, err: err}
	if err == nil {
		o.err = checkForensics(tracePath, diagPath, jsonl.Len(), recs, exps, prom.String())
		if fi, serr := os.Stat(tracePath); serr == nil {
			out.sample("obs.jsonl_mb", float64(fi.Size())/1e6)
		}
	}
	out.ops = []op{o}
	out.sample("obs.records", float64(len(recs)))
	out.sample("obs.explain_s", explainDur.Seconds())
	out.sample("obs.prom_render_ms", float64(promDur)/1e6)
	return out, nil
}

// checkForensics holds the job's outputs to the records the run emitted:
// one JSONL line per record, one CSV row per diagnosis record, at least
// one explained decision about the misbehaver, and a parseable scrape.
func checkForensics(tracePath, diagPath string, emitted int, recs []obs.Record, exps []obs.Explanation, prom string) error {
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	if lines := bytes.Count(trace, []byte("\n")); lines != emitted || lines != len(recs) {
		return fmt.Errorf("forensics: %d JSONL lines, %d emitted, %d captured", lines, emitted, len(recs))
	}
	diag, err := os.ReadFile(diagPath)
	if err != nil {
		return err
	}
	diagRecs := 0
	for _, r := range recs {
		if r.Cat == obs.CatDiagnosis {
			diagRecs++
		}
	}
	if rows := bytes.Count(diag, []byte("\n")) - 1; rows != diagRecs {
		return fmt.Errorf("forensics: %d diagnosis CSV rows, %d diagnosis records", rows, diagRecs)
	}
	about := 0
	for _, e := range exps {
		if e.Decision.Peer == forensicSuspect {
			about++
		}
	}
	if about == 0 {
		return fmt.Errorf("forensics: Explain found no decision about node %d", forensicSuspect)
	}
	samples, err := parsePrometheus(prom)
	if err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("forensics: empty Prometheus scrape")
	}
	return nil
}

// parsePrometheus checks every line of a text-format scrape: comments,
// or `name{labels} value` samples with a legal name and a float value.
// It returns the number of samples.
func parsePrometheus(text string) (int, error) {
	n := 0
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			return n, fmt.Errorf("prometheus: no value in %q", line)
		}
		name, labels, hasLabels := strings.Cut(series, "{")
		if !promName(name) {
			return n, fmt.Errorf("prometheus: bad metric name in %q", line)
		}
		if hasLabels {
			if !strings.HasSuffix(labels, "}") {
				return n, fmt.Errorf("prometheus: unterminated labels in %q", line)
			}
			for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok || !promName(k) || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					return n, fmt.Errorf("prometheus: bad label %q in %q", kv, line)
				}
			}
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return n, fmt.Errorf("prometheus: bad value in %q", line)
		}
		n++
	}
	return n, nil
}

// promName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || i > 0 && r >= '0' && r <= '9'
		if !ok {
			return false
		}
	}
	return true
}
