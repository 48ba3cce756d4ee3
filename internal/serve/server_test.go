package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dcfguard/internal/experiment"
	"dcfguard/internal/topo"
)

// testSpec is the canonical fast job: the guard/journal tests' quick
// star scenario (8 senders, one misbehaver at PM 80, 200 ms).
func testSpec(name string, seeds ...uint64) JobSpec {
	return JobSpec{
		Name: name,
		Scenario: experiment.ScenarioSpec{
			Name:     name,
			Topo:     experiment.TopoSpec{Kind: "star", Senders: 8, Misbehaving: []int{3}},
			PM:       80,
			Duration: "200ms",
		},
		SeedList: seeds,
	}
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func waitUntil(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("timed out waiting for " + msg)
}

var artifactFiles = []string{"aggregate.json", "results.csv", "results.json"}

func readArtifacts(t *testing.T, st store, name string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, f := range artifactFiles {
		data, err := os.ReadFile(filepath.Join(st.artifactsDir(name), f))
		if err != nil {
			t.Fatal(err)
		}
		out[f] = data
	}
	return out
}

// referenceArtifacts runs the job to completion on a fresh daemon in a
// fresh directory: the ground truth every crash/restart path must
// reproduce byte-for-byte.
func referenceArtifacts(t *testing.T, js JobSpec) map[string][]byte {
	t.Helper()
	s := newTestServer(t, Options{Workers: 2})
	if _, err := s.Submit(js); err != nil {
		t.Fatal(err)
	}
	st, ok := s.Wait(js.Name)
	if !ok || st.State != StateDone {
		t.Fatalf("reference job state %q, ok=%v", st.State, ok)
	}
	return readArtifacts(t, s.st, js.Name)
}

// TestServeRunsJob: a submitted job runs to done, and its results.csv
// matches direct experiment.Run output exactly — daemon-submitted
// sweeps are interchangeable with in-process ones.
func TestServeRunsJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	js := testSpec("basic", 1, 2)
	status, err := s.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != StateQueued && status.State != StateRunning {
		t.Fatalf("submit status state %q", status.State)
	}
	final, ok := s.Wait("basic")
	if !ok || final.State != StateDone {
		t.Fatalf("final state %q, ok=%v", final.State, ok)
	}
	if final.Cells.Done != 2 || final.Cells.Ran != 2 || final.Cells.Failed != 0 {
		t.Fatalf("cells %+v", final.Cells)
	}
	if got, want := final.Artifacts, artifactFiles; !equalStrings(got, want) {
		t.Fatalf("artifacts %v, want %v", got, want)
	}

	scenario, err := js.Scenario.ToScenario()
	if err != nil {
		t.Fatal(err)
	}
	var results []experiment.Result
	for _, seed := range []uint64{1, 2} {
		res, err := experiment.Run(scenario, seed)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	want := experiment.ResultsCSV(results)
	got, err := os.ReadFile(filepath.Join(s.st.artifactsDir("basic"), "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("daemon results.csv differs from direct runs")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServeIdempotentAndConflict: resubmitting the same spec returns
// the live status; the same name with a different spec is refused.
func TestServeIdempotentAndConflict(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	js := testSpec("idem", 1)
	if _, err := s.Submit(js); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(js); err != nil {
		t.Fatalf("identical resubmit: %v", err)
	}
	if _, err := s.Submit(testSpec("idem", 1, 2)); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting resubmit: %v, want ErrConflict", err)
	}
	if st, _ := s.Wait("idem"); st.State != StateDone {
		t.Fatalf("state %q", st.State)
	}
	// Idempotence survives completion, and the conflict check still bites.
	if st, err := s.Submit(js); err != nil || st.State != StateDone {
		t.Fatalf("post-completion resubmit: %v, state %q", err, st.State)
	}
}

// TestServeAdmissionControl: a job that would overflow the bounded
// queue is refused at the door with a Retry-After hint, no disk state
// is created for it, and already-accepted jobs are unharmed.
func TestServeAdmissionControl(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueCap: 3})
	if _, err := s.Submit(testSpec("small", 1, 2)); err != nil {
		t.Fatal(err)
	}

	_, err := s.Submit(testSpec("big", 1, 2, 3, 4, 5))
	var oe OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("oversized submit: %v, want OverloadError", err)
	}
	if oe.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %v < 1s", oe.RetryAfter)
	}
	if _, err := os.Stat(s.st.specPath("big")); !os.IsNotExist(err) {
		t.Fatal("rejected job left disk state behind")
	}
	if got := s.m.rejected.Value(); got != 1 {
		t.Fatalf("admission_rejected = %d, want 1", got)
	}

	if st, _ := s.Wait("small"); st.State != StateDone {
		t.Fatalf("accepted job state %q after rejection", st.State)
	}
	if !s.Ready() {
		t.Fatal("not ready after backlog drained")
	}
}

// TestServeSubmitValidation: bad names and bad specs never reach the
// queue.
func TestServeSubmitValidation(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	bad := []JobSpec{
		testSpec(""),
		testSpec("../evil", 1),
		testSpec("dir/escape", 1),
		{Name: "noscenario"},
		{Name: "bothseeds", Scenario: testSpec("x", 1).Scenario, Seeds: 2, SeedList: []uint64{1}},
	}
	for _, js := range bad {
		if _, err := s.Submit(js); err == nil {
			t.Errorf("spec %+v accepted, want error", js.Name)
		}
	}
}

// TestServeRejectsTraceEvents: a frame timeline is in-memory state a
// job never journals, so a spec asking for one is refused at admission
// and leaves nothing on disk.
func TestServeRejectsTraceEvents(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	js := testSpec("timeline", 1)
	js.Scenario.TraceEvents = 50
	_, err := s.Submit(js)
	if err == nil || !strings.Contains(err.Error(), "trace_events is a local-run field") {
		t.Fatalf("trace_events spec: err %v, want a local-run field error", err)
	}
	if names, _ := s.st.listJobs(); len(names) != 0 {
		t.Fatalf("rejected job left disk state behind: %v", names)
	}
}

// manualTimer records scheduled backoffs and fires them only on
// demand, so retry scheduling is exercised without real sleeps and the
// recorded delays can be asserted against the pure policy.
type manualTimer struct {
	mu     sync.Mutex
	delays []time.Duration
	fns    []func()
}

func (m *manualTimer) timer(d time.Duration, f func()) func() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.delays = append(m.delays, d)
	m.fns = append(m.fns, f)
	return func() {}
}

func (m *manualTimer) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.fns)
}

func (m *manualTimer) fire(i int) {
	m.mu.Lock()
	f := m.fns[i]
	m.mu.Unlock()
	f()
}

func (m *manualTimer) delay(i int) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delays[i]
}

// injectJob builds a job whose every cell panics (an injected topology
// bug, the guard tests' trick) and enqueues it directly — panics can't
// be expressed in a wire spec, by design.
func injectPanicJob(t *testing.T, s *Server, name string, ncells int) {
	t.Helper()
	js := testSpec(name, experiment.Seeds(ncells)...)
	j, err := s.buildJob(js)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.st.writeSpec(js); err != nil {
		t.Fatal(err)
	}
	boom := func(uint64) *topo.Topology { panic("injected cell bug") }
	j.scenario.Topo = boom
	for i := range j.cells {
		j.cells[i].Scenario.Topo = boom
	}
	s.mu.Lock()
	s.seq++
	j.seq = s.seq
	j.progress.SetTotal(len(j.cells))
	s.jobs[name] = j
	s.cond.Broadcast()
	s.mu.Unlock()
}

// TestServeRetrySchedule: a failing cell is retried on exactly the
// deterministic full-jitter schedule the policy computes, and exhausts
// into a failed job carrying the dumps.
func TestServeRetrySchedule(t *testing.T) {
	mt := &manualTimer{}
	retry := RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	s := newTestServer(t, Options{Workers: 1, Retry: retry, BreakerK: -1, Timer: mt.timer})
	injectPanicJob(t, s, "flaky", 1)

	key := CellKey("flaky", "flaky", 1)
	waitUntil(t, "first retry armed", func() bool { return mt.count() >= 1 })
	if got, want := mt.delay(0), retry.Delay(key, 1); got != want {
		t.Fatalf("retry 1 delay %v, want %v", got, want)
	}
	mt.fire(0)
	waitUntil(t, "second retry armed", func() bool { return mt.count() >= 2 })
	if got, want := mt.delay(1), retry.Delay(key, 2); got != want {
		t.Fatalf("retry 2 delay %v, want %v", got, want)
	}
	mt.fire(1)

	st, ok := s.Wait("flaky")
	if !ok || st.State != StateFailed {
		t.Fatalf("state %q, ok=%v, want failed", st.State, ok)
	}
	if st.Retries != 2 {
		t.Fatalf("retries %d, want 2", st.Retries)
	}
	if len(st.Failures) != 1 || !strings.Contains(st.Failures[0], "injected cell bug") {
		t.Fatalf("failures %v", st.Failures)
	}
	dumps, err := s.st.readFailures("flaky")
	if err != nil || len(dumps) != 1 || dumps[0].Attempts != 3 {
		t.Fatalf("failures.json: %v, %+v", err, dumps)
	}
	if !strings.Contains(dumps[0].Dump, "stack:") {
		t.Fatal("failure dump lost its stack")
	}
}

// TestServeBreakerParksDegraded: K consecutive panicking cells trip the
// job's breaker; remaining cells are dropped, the evidence lands in
// degraded.json, and the job parks as degraded instead of burning the
// pool.
func TestServeBreakerParksDegraded(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, Retry: RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond}, BreakerK: 2})
	injectPanicJob(t, s, "poisoned", 4)

	st, ok := s.Wait("poisoned")
	if !ok || st.State != StateDegraded {
		t.Fatalf("state %q, ok=%v, want degraded", st.State, ok)
	}
	rec, err := s.st.readDegraded("poisoned")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.Reason, "circuit breaker") || !strings.Contains(rec.Reason, "K=2") {
		t.Fatalf("reason %q", rec.Reason)
	}
	if len(rec.Dumps) != 2 {
		t.Fatalf("%d dumps, want 2 (the tripping streak)", len(rec.Dumps))
	}
	// The breaker saved the tail: at most the two streak cells ran.
	s.mu.Lock()
	j := s.jobs["poisoned"]
	ran := 0
	for _, a := range j.attempts {
		if a > 0 {
			ran++
		}
	}
	s.mu.Unlock()
	if ran != 2 {
		t.Fatalf("%d cells ran, want 2", ran)
	}
	if got := s.m.jobsDegraded.Value(); got != 1 {
		t.Fatalf("jobs_degraded = %d, want 1", got)
	}
}

// TestServeFairScheduling is a white-box check of the dispatch order:
// tenants alternate round-robin regardless of backlog imbalance, and
// within a tenant jobs go FIFO by acceptance.
func TestServeFairScheduling(t *testing.T) {
	opts := Options{DataDir: t.TempDir(), Workers: 1}.withDefaults()
	s := &Server{opts: opts, st: store{dir: opts.DataDir}, m: NewMetrics(opts.Registry), jobs: map[string]*job{}}
	s.cond = sync.NewCond(&s.mu)

	add := func(name, tenant string, ncells int) {
		js := testSpec(name, experiment.Seeds(ncells)...)
		js.Tenant = tenant
		j, err := s.buildJob(js)
		if err != nil {
			t.Fatal(err)
		}
		s.seq++
		j.seq = s.seq
		s.jobs[name] = j
	}
	add("alice-1", "alice", 3)
	add("alice-2", "alice", 2)
	add("bob-1", "bob", 2)

	s.mu.Lock()
	var order []string
	for {
		ref, ok := s.nextCellLocked()
		if !ok {
			break
		}
		order = append(order, ref.j.spec.Name)
		ref.j.inflight-- // pretend the cell completed
	}
	s.mu.Unlock()

	want := []string{
		"alice-1", "bob-1", // round-robin across tenants…
		"alice-1", "bob-1",
		"alice-1",            // bob drained; alice-1 still FIFO-first…
		"alice-2", "alice-2", // …then alice-2
	}
	if !equalStrings(order, want) {
		t.Fatalf("dispatch order %v\nwant          %v", order, want)
	}
}

// TestServeRestartResumes is the tentpole's signature property, in
// process: interrupt a sweep, damage the leftovers the way a kill -9
// would (a missing journal cell, a torn temp file, no artifacts), and
// a cold restart over the same directory must finish the job with
// artifacts byte-identical to an uninterrupted reference run.
func TestServeRestartResumes(t *testing.T) {
	js := testSpec("resume", 1, 2, 3, 4)
	want := referenceArtifacts(t, js)

	dir := t.TempDir()
	a := newTestServer(t, Options{DataDir: dir, Workers: 1})
	if _, err := a.Submit(js); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "two cells journaled", func() bool {
		st, _ := a.Status("resume")
		return st.Cells.Done >= 2
	})
	a.Shutdown() // graceful: the in-flight cell reaches its checkpoint

	// Forge the harsher crash the drain avoided: one journal cell gone
	// (as if the process died before its rename), a torn temp file left
	// behind (as if it died mid-write), and no believable artifacts.
	journal := a.st.journalDir("resume")
	entries, err := os.ReadDir(journal)
	if err != nil || len(entries) < 2 {
		t.Fatalf("journal entries: %v, %d", err, len(entries))
	}
	if err := os.Remove(filepath.Join(journal, entries[0].Name())); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(journal, "."+entries[0].Name()+".tmp-42"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(a.st.artifactsDir("resume"), "results.json"))

	b := newTestServer(t, Options{DataDir: dir, Workers: 1})
	st, ok := b.Wait("resume")
	if !ok || st.State != StateDone {
		t.Fatalf("restarted job state %q, ok=%v", st.State, ok)
	}
	if st.Cells.Resumed < 1 || st.Cells.Ran < 1 || st.Cells.Resumed+st.Cells.Ran != 4 {
		t.Fatalf("cells %+v: want a mix of resumed and re-run summing to 4", st.Cells)
	}
	got := readArtifacts(t, b.st, "resume")
	for _, f := range artifactFiles {
		if !bytes.Equal(got[f], want[f]) {
			t.Errorf("%s differs after kill/restart", f)
		}
	}
}

// TestServeRefusesRetiredChannel: a data dir written before channel
// model v1 was retired holds a job whose spec asks for it. Recovery
// cannot run that job, so the daemon refuses the directory at start,
// with an error naming the job and the retirement, instead of dropping
// or silently re-running the job on another channel.
func TestServeRefusesRetiredChannel(t *testing.T) {
	dir := t.TempDir()
	js := testSpec("old-v1", 1, 2)
	js.Scenario.Channel = "v1"
	if err := (store{dir: dir}).writeSpec(js); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Options{DataDir: dir, Workers: 1})
	if err == nil {
		s.Shutdown()
		t.Fatal("daemon recovered a job on the retired v1 channel")
	}
	for _, want := range []string{`"old-v1"`, "v1 was retired"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("recovery error %q does not contain %q", err, want)
		}
	}
}

// TestServeRefusesMisfiledSpec: a spec.json naming job "b" inside
// jobs/a would journal into jobs/b while the job table keys it "a", and
// GC would later remove jobs/b and leave the "a" entry behind. The
// daemon refuses the data dir instead, naming both.
func TestServeRefusesMisfiledSpec(t *testing.T) {
	dir := t.TempDir()
	st := store{dir: dir}
	if err := st.writeSpec(testSpec("b", 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(st.jobDir("b"), st.jobDir("a")); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Options{DataDir: dir, Workers: 1})
	if err == nil {
		s.Shutdown()
		t.Fatal("daemon recovered a spec.json filed under another job's directory")
	}
	for _, want := range []string{`"a"`, `"b"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("recovery error %q does not contain %q", err, want)
		}
	}
}

// TestServeHTTP drives the full HTTP surface end to end: health and
// readiness, submission (including the 400/429/idempotent/conflict
// paths with Retry-After), status polling, and artifact download.
func TestServeHTTP(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, QueueCap: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}
	post := func(path, body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(data)
	}

	if resp, body := get("/healthz"); resp.StatusCode != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != 200 {
		t.Fatalf("/readyz: %d", resp.StatusCode)
	}
	if resp, _ := post("/jobs", `{"nope`); resp.StatusCode != 400 {
		t.Fatalf("bad JSON: %d", resp.StatusCode)
	}
	if resp, _ := post("/jobs", `{"name": "h", "scenario": {"name": "h"}, "mystery": 1}`); resp.StatusCode != 400 {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}

	spec, err := json.Marshal(testSpec("http-job", 1))
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post("/jobs", string(spec))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}

	// Overflow the queue: 429 with a Retry-After the client can obey.
	big, err := json.Marshal(testSpec("http-big", experiment.Seeds(20)...))
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = post("/jobs", string(big))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After %q", ra)
	}

	if st, _ := s.Wait("http-job"); st.State != StateDone {
		t.Fatalf("state %q", st.State)
	}
	resp, body = get("/jobs/http-job")
	var status JobStatus
	if resp.StatusCode != 200 || json.Unmarshal([]byte(body), &status) != nil || status.State != StateDone {
		t.Fatalf("status: %d %s", resp.StatusCode, body)
	}
	resp, body = get("/jobs")
	var list []JobStatus
	if resp.StatusCode != 200 || json.Unmarshal([]byte(body), &list) != nil || len(list) != 1 {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}

	resp, body = get("/jobs/http-job/artifacts/results.csv")
	disk, err := os.ReadFile(filepath.Join(s.st.artifactsDir("http-job"), "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || body != string(disk) {
		t.Fatalf("artifact download: %d, %d bytes vs %d on disk", resp.StatusCode, len(body), len(disk))
	}
	if resp, _ := get("/jobs/http-job/artifacts/../spec.json"); resp.StatusCode == 200 {
		t.Fatal("path traversal served a file")
	}
	if resp, _ := get("/jobs/ghost"); resp.StatusCode != 404 {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	if resp, body := get("/metrics"); resp.StatusCode != 200 || !strings.Contains(body, "jobs_submitted") {
		t.Fatalf("/metrics: %d %s", resp.StatusCode, body)
	}

	// Drain: readiness flips and submissions bounce with 503.
	s.Shutdown()
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d", resp.StatusCode)
	}
	if resp, _ := post("/jobs", string(spec)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d", resp.StatusCode)
	}
}
