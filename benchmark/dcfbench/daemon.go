package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dcfguard/internal/atomicio"
	"dcfguard/internal/experiment"
	"dcfguard/internal/obs"
	"dcfguard/internal/serve"
)

// daemonSweep is a closed-loop client in front of an in-process sweep
// daemon: each job is submitted over HTTP, followed over SSE to its
// terminal event, and its results.csv downloaded before the next job
// goes in. The cells are short, so the daemon path (admission,
// dispatch, journal fsyncs, artifacts) dominates.
type daemonSweep struct {
	e     env
	spec  experiment.ScenarioSpec
	seeds []uint64
	cs    cellSet

	// ref is results.csv for the job's cells run locally, refEvents the
	// kernel events in it, and cellJSON one cell's result as JSON: the
	// size of a journal entry.
	ref       []byte
	refEvents uint64
	cellJSON  []byte

	d       *daemon
	nextJob int
}

// cellsPerJob is the seed count of every job.
const cellsPerJob = 4

func newDaemonSweep(e env) *daemonSweep {
	spec := experiment.ScenarioSpec{
		Name:     "random-40-v2",
		Topo:     experiment.TopoSpec{Kind: "random", Nodes: 40, Mis: 5},
		PM:       80,
		Duration: e.sc.cellDuration,
		Channel:  "v2",
	}
	w := &daemonSweep{e: e, spec: spec}
	for i := 0; i < cellsPerJob; i++ {
		w.seeds = append(w.seeds, e.seed+uint64(i))
	}
	return w
}

func (w *daemonSweep) cellSet() cellSet { return w.cs }

func (w *daemonSweep) subject() subject { return subject{cell: w.cs.cells[0]} }

// prepare runs the job's cells locally for the results.csv reference,
// then starts the daemon the reps submit to.
func (w *daemonSweep) prepare() error {
	s, err := w.spec.ToScenario()
	if err != nil {
		return err
	}
	var cells []cell
	for _, seed := range w.seeds {
		cells = append(cells, cell{s, seed})
	}
	w.cs = cellSet{cells: cells, workers: parallelism, repeat: w.e.sc.jobs}
	results, ops, _ := runCells(w.cs, 0, nil)
	for _, o := range ops {
		if o.err != nil {
			return fmt.Errorf("reference cells: %w", o.err)
		}
	}
	w.ref = []byte(experiment.ResultsCSV(results))
	for _, r := range results {
		w.refEvents += r.EventsFired
	}
	if w.cellJSON, err = json.Marshal(results[0]); err != nil {
		return err
	}
	w.d, err = startDaemon(filepath.Join(w.e.dir, "serve-data"))
	return err
}

// setup times the daemon's set-up: NewServer on an empty data
// directory, its HTTP listener, and the first admission. The admitted
// job's cells last one simulated microsecond, so that the workers it
// wakes do not compete with the admission for the CPUs; the daemon is
// then shut down and its directory removed, untimed.
func (w *daemonSweep) setup() (time.Duration, error) {
	dir, err := os.MkdirTemp(w.e.dir, "setup-")
	if err != nil {
		return 0, err
	}
	js := w.job()
	js.Scenario.Duration = "1us"
	start := time.Now()
	var took time.Duration
	d, err := startDaemon(dir)
	if err == nil {
		_, err = d.client.submit(js)
		took = time.Since(start)
		err = errors.Join(err, d.stop())
	}
	return took, errors.Join(err, os.RemoveAll(dir))
}

func (w *daemonSweep) close() error {
	var err error
	if w.d != nil {
		err = w.d.stop()
	}
	return errors.Join(err, os.RemoveAll(filepath.Join(w.e.dir, "serve-data")))
}

// job returns the next job spec; names never repeat within a run.
func (w *daemonSweep) job() serve.JobSpec {
	w.nextJob++
	return serve.JobSpec{Name: fmt.Sprintf("job-%05d", w.nextJob), Scenario: w.spec, SeedList: w.seeds}
}

func (w *daemonSweep) rep() (repOut, error) {
	var out repOut
	retried0 := w.d.cellsRetried()
	start := time.Now()
	for k := 0; k < w.e.sc.jobs; k++ {
		js := w.job()
		jt, csv, err := w.d.client.run(js)
		o := op{lat: jt.latency, err: err}
		if err == nil {
			switch {
			case jt.retries > 0:
				o.err = fmt.Errorf("daemon: job %s retried %d cells", js.Name, jt.retries)
			case !bytes.Equal(csv, w.ref):
				o.err = fmt.Errorf("daemon: job %s results.csv differs from the local run", js.Name)
			default:
				out.events += w.refEvents
			}
			out.sample("serve.admit_ms", float64(jt.admit)/1e6)
			out.sample("serve.first_cell_ms", float64(jt.firstCell)/1e6)
		}
		out.ops = append(out.ops, o)
	}
	out.wall = time.Since(start)
	out.sample("serve.cells_retried", float64(w.d.cellsRetried()-retried0))
	return out, nil
}

// traceExtras measures the daemon's own per-layer metrics once the
// profiled reps are done: its overhead per cell — the median job
// latency less the same cells' time run directly at the same
// parallelism — and atomicio's write latency.
func (w *daemonSweep) traceExtras(reps []repOut, lv *layerVals) error {
	var lats, raw []float64
	for _, r := range reps {
		for _, o := range r.ops {
			if o.err == nil {
				lats = append(lats, o.lat.Seconds())
			}
		}
	}
	for i := 0; i < 5; i++ {
		_, _, wall := runCells(w.cs, 0, nil)
		raw = append(raw, wall.Seconds())
	}
	lv.set("serve.overhead_ms_per_cell", (median(lats)-median(raw))*1e3/cellsPerJob)
	ms, err := w.atomicWrites(100)
	if err != nil {
		return err
	}
	lv.set("atomicio.write_ms_p50", median(ms))
	lv.set("atomicio.write_ms_p90", percentile(ms, 90))
	lv.samples["atomicio.write_ms_p50"] = ms
	return nil
}

// atomicWrites times n atomicio.WriteFile calls of a journal-cell-sized
// payload in the daemon's data directory, in milliseconds.
func (w *daemonSweep) atomicWrites(n int) ([]float64, error) {
	dir := filepath.Join(w.d.dir, "atomicio-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var ms []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := atomicio.WriteFile(filepath.Join(dir, "cell-"+strconv.Itoa(i)+".json"), w.cellJSON, 0o644); err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return ms, nil
}

// daemon is a running serve.Server behind its HTTP handler on a
// loopback listener.
type daemon struct {
	dir    string
	reg    *obs.Registry
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *client
}

func startDaemon(dir string) (*daemon, error) {
	reg := obs.NewRegistry()
	srv, err := serve.NewServer(serve.Options{DataDir: dir, Workers: parallelism, Registry: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	d := &daemon{dir: dir, reg: reg, srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = &client{base: "http://" + ln.Addr().String(), hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: parallelism, MaxIdleConnsPerHost: parallelism},
	}}
	return d, nil
}

// stop closes the listener and every connection, waits for Serve to
// return, then drains the server's workers.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.client.hc.CloseIdleConnections()
	d.srv.Shutdown()
	return err
}

// cellsRetried reads the daemon's serve/cells_retried counter.
func (d *daemon) cellsRetried() uint64 {
	for _, c := range d.reg.Snapshot().Counters {
		if c.Scope == "serve" && c.Name == "cells_retried" {
			return c.Value
		}
	}
	return 0
}

// client is the benchmark's side of the daemon's HTTP API.
type client struct {
	base string
	hc   *http.Client
}

// jobTiming is one job's client-side timeline, from the POST.
type jobTiming struct {
	admit     time.Duration // 202 received
	firstCell time.Duration // first "cell" SSE event
	latency   time.Duration // results.csv received
	retries   int           // "retry" SSE events
}

// submit POSTs a job and requires 202 Accepted.
func (c *client) submit(js serve.JobSpec) (time.Duration, error) {
	body, err := json.Marshal(js)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("daemon: POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return time.Since(t0), nil
}

// run submits a job, follows its event stream to the terminal state
// and downloads results.csv.
func (c *client) run(js serve.JobSpec) (jobTiming, []byte, error) {
	var jt jobTiming
	t0 := time.Now()
	admit, err := c.submit(js)
	if err != nil {
		return jt, nil, err
	}
	jt.admit = admit
	state, err := c.follow(js.Name, t0, &jt)
	if err != nil {
		return jt, nil, err
	}
	if state != serve.StateDone {
		return jt, nil, fmt.Errorf("daemon: job %s ended %s", js.Name, state)
	}
	resp, err := c.hc.Get(c.base + "/jobs/" + js.Name + "/artifacts/results.csv")
	if err != nil {
		return jt, nil, err
	}
	csv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return jt, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return jt, nil, fmt.Errorf("daemon: results.csv: %s", resp.Status)
	}
	jt.latency = time.Since(t0)
	return jt, csv, nil
}

// follow reads the job's SSE stream until its terminal state event.
func (c *client) follow(name string, t0 time.Time, jt *jobTiming) (string, error) {
	resp, err := c.hc.Get(c.base + "/jobs/" + name + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("daemon: events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	kind := ""
	for sc.Scan() {
		line := sc.Text()
		if k, ok := strings.CutPrefix(line, "event: "); ok {
			kind = k
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch kind {
		case "cell":
			if jt.firstCell == 0 {
				jt.firstCell = time.Since(t0)
			}
		case "retry":
			jt.retries++
		case "state":
			var st struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return "", fmt.Errorf("daemon: state event %q: %w", data, err)
			}
			switch st.State {
			case serve.StateDone, serve.StateFailed, serve.StateDegraded:
				// Drain the stream's end so the connection is reused.
				_, err := io.Copy(io.Discard, resp.Body)
				return st.State, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("daemon: job %s stream ended before a terminal state", name)
}
