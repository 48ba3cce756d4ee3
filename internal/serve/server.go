package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcfguard/internal/experiment"
	"dcfguard/internal/obs"
)

// Submission errors with dedicated HTTP mappings.
var (
	// ErrDraining refuses submissions during graceful shutdown (503).
	ErrDraining = errors.New("serve: draining: not accepting new jobs")
	// ErrConflict rejects a known job name with a different spec (409).
	ErrConflict = errors.New("serve: job already exists with a different spec")
)

// OverloadError is the admission-control refusal (429): the queue of
// outstanding cells is full. RetryAfter is the backoff hint, a pure
// function of the backlog — no clock involved.
type OverloadError struct {
	Outstanding int
	QueueCap    int
	RetryAfter  time.Duration
}

func (e OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded: %d cells outstanding (cap %d), retry after %s",
		e.Outstanding, e.QueueCap, e.RetryAfter)
}

// Server is the daemon core: the job table, the fair scheduler, and
// the worker pool, all over one data directory.
type Server struct {
	opts Options
	st   store
	m    metrics

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   map[string]*job
	seq    uint64 // acceptance order
	rrPrev string // last tenant served, for round-robin rotation
	closed bool   // drain has begun: no new cells dispatched
	wg     sync.WaitGroup
}

// NewServer opens (or creates) the data directory, recovers every
// acknowledged job from disk — terminal jobs stay parked with their
// artifacts, interrupted ones re-enqueue and resume from their journal
// checkpoints — and starts the worker pool.
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts: opts,
		st:   store{dir: opts.DataDir},
		m:    NewMetrics(opts.Registry),
		jobs: make(map[string]*job),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := os.MkdirAll(s.st.jobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover rebuilds the job table from disk truth: every directory with
// a spec.json was acknowledged and must be accounted for.
func (s *Server) recover() error {
	names, err := s.st.listJobs()
	if err != nil {
		return err
	}
	for _, name := range names {
		js, err := s.st.readSpec(name)
		if err != nil {
			return fmt.Errorf("serve: recovering job %q: %w", name, err)
		}
		// Journal, artifact and GC paths follow the spec's name, so a
		// spec filed under another directory would split the job in two.
		if js.Name != name {
			return fmt.Errorf("serve: recovering job %q: its spec.json names job %q", name, js.Name)
		}
		j, err := s.buildJob(js)
		if err != nil {
			return fmt.Errorf("serve: recovering job %q: %w", name, err)
		}
		if term := s.st.terminalState(name); term != "" {
			// Terminal: park it; artifacts and dumps answer status from
			// disk. The cell counters reflect the recorded outcome.
			j.pending = nil
			j.progress.SetTotal(len(j.cells))
			switch term {
			case StateDegraded:
				if rec, err := s.st.readDegraded(name); err == nil {
					for range rec.Dumps {
						j.progress.CellDone(true)
					}
				}
			case StateFailed:
				failed := 0
				if dumps, err := s.st.readFailures(name); err == nil {
					failed = len(dumps)
					for range dumps {
						j.progress.CellDone(true)
					}
				}
				for i := failed; i < len(j.cells); i++ {
					j.progress.CellResumed()
				}
			case StateDone:
				for range j.cells {
					j.progress.CellResumed()
				}
			}
			j.finish(term)
			j.finishedAt = s.st.terminalStamp(name)
			// The event log died with the previous daemon; a synthesized
			// state event lets a late SSE subscriber still learn the
			// outcome and terminate cleanly.
			s.eventLocked(j, "state", stateEventData{State: term})
		}
		s.jobs[name] = j
	}
	s.gcLocked()
	return nil
}

// gcLocked enforces Options.Retain: among terminal jobs with no cells
// still draining, the Retain most recently finished survive; the rest
// leave the table and the disk. Live jobs are never candidates.
func (s *Server) gcLocked() {
	if s.opts.Retain <= 0 {
		return
	}
	var term []*job
	for _, j := range s.jobs {
		if j.terminal() && j.inflight == 0 {
			term = append(term, j)
		}
	}
	if len(term) <= s.opts.Retain {
		return
	}
	sort.Slice(term, func(a, b int) bool {
		if !term[a].finishedAt.Equal(term[b].finishedAt) {
			return term[a].finishedAt.After(term[b].finishedAt)
		}
		return term[a].spec.Name < term[b].spec.Name
	})
	for _, j := range term[s.opts.Retain:] {
		delete(s.jobs, j.spec.Name)
		// Best effort: a directory that refuses to die is re-candidate
		// on the next GC pass or restart.
		s.st.removeJob(j.spec.Name)
		s.m.jobsRetired.Inc()
	}
}

// buildJob validates a spec into runnable state: scenario built and
// validated, seed set expanded, every cell pending.
func (s *Server) buildJob(js JobSpec) (*job, error) {
	if err := sanitizeJobName(js.Name); err != nil {
		return nil, err
	}
	scenario, err := js.Scenario.ToScenario()
	if err != nil {
		return nil, err
	}
	seeds, err := js.seeds()
	if err != nil {
		return nil, err
	}
	j := &job{
		spec:     js,
		tenant:   js.Tenant,
		scenario: scenario,
		seeds:    seeds,
		state:    StateQueued,
		results:  make([]experiment.Result, len(seeds)),
		done:     make([]bool, len(seeds)),
		failures: make([]*experiment.SeedFailure, len(seeds)),
		attempts: make([]int, len(seeds)),
		progress: &experiment.SweepProgress{},
		finished: make(chan struct{}),
	}
	if j.tenant == "" {
		j.tenant = "default"
	}
	for i := range seeds {
		j.cells = append(j.cells, experiment.SweepCell{Scenario: scenario, Seed: seeds[i]})
		j.pending = append(j.pending, i)
	}
	return j, nil
}

// loadLocked sums outstanding cells across live jobs: the quantity the
// admission controller bounds.
func (s *Server) loadLocked() int {
	load := 0
	for _, j := range s.jobs {
		if !j.terminal() {
			load += j.outstanding()
		}
	}
	return load
}

// retryAfter converts a backlog into a client backoff hint: one second
// per worker-pool's-worth of queued cells, clamped to [1s, 30s]. A pure
// function of counts, so tests can assert it exactly.
func (s *Server) retryAfter(load int) time.Duration {
	secs := 1 + load/(s.opts.Workers*8)
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

// admitLocked refuses n more cells with an OverloadError when they
// would push the outstanding load past QueueCap.
func (s *Server) admitLocked(n int) error {
	load := s.loadLocked()
	if n <= s.opts.QueueCap-load {
		return nil
	}
	s.m.rejected.Inc()
	return OverloadError{Outstanding: load, QueueCap: s.opts.QueueCap, RetryAfter: s.retryAfter(load)}
}

// Submit accepts one job: admission control, durable spec record, then
// enqueue. Resubmitting an identical spec is idempotent (the current
// status returns); a different spec under a known name is ErrConflict.
func (s *Server) Submit(js JobSpec) (JobStatus, error) {
	// A job journals metrics only, so every cell would build a frame
	// timeline and drop it. Checked here rather than in buildJob so
	// that recovery still loads a job journaled before the check.
	if js.Scenario.TraceEvents > 0 {
		return JobStatus{}, fmt.Errorf("serve: trace_events is a local-run field (macsim -timeline); a job keeps no frame timeline")
	}
	// Admission before expansion: a job that cannot fit is refused
	// before buildJob allocates its per-seed state. A draining server
	// and a resubmitted name skip this; the checks below judge them.
	s.mu.Lock()
	_, known := s.jobs[js.Name]
	var err error
	if !s.closed && !known {
		err = s.admitLocked(js.cellCount())
	}
	s.mu.Unlock()
	if err != nil {
		return JobStatus{}, err
	}
	nj, err := s.buildJob(js)
	if err != nil {
		return JobStatus{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	if prev, ok := s.jobs[js.Name]; ok {
		defer s.mu.Unlock()
		if !specEqual(prev.spec, js) {
			return JobStatus{}, ErrConflict
		}
		return s.statusLocked(prev), nil
	}
	// The load may have grown since the first check.
	if err := s.admitLocked(len(nj.cells)); err != nil {
		s.mu.Unlock()
		return JobStatus{}, err
	}
	s.mu.Unlock()

	// Durably record the spec BEFORE acknowledging: an acked job
	// survives kill -9 even if it never dispatched a cell.
	if err := s.st.writeSpec(js); err != nil {
		return JobStatus{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, ErrDraining
	}
	if prev, ok := s.jobs[js.Name]; ok {
		// Lost a race with an identical submission.
		if !specEqual(prev.spec, js) {
			return JobStatus{}, ErrConflict
		}
		return s.statusLocked(prev), nil
	}
	s.seq++
	nj.seq = s.seq
	nj.progress.SetTotal(len(nj.cells))
	s.jobs[js.Name] = nj
	s.m.jobsSubmitted.Inc()
	s.cond.Broadcast()
	return s.statusLocked(nj), nil
}

// specEqual compares submissions by canonical JSON: the same bytes the
// store records, so in-memory and disk idempotence agree.
func specEqual(a, b JobSpec) bool {
	aj, aerr := json.Marshal(a)
	bj, berr := json.Marshal(b)
	return aerr == nil && berr == nil && string(aj) == string(bj)
}

// cellRef hands one dispatched cell to a worker.
type cellRef struct {
	j   *job
	idx int
}

// nextCellLocked is the fair scheduler: tenants with pending work are
// served round-robin (sorted, rotating after the last tenant served),
// and within a tenant jobs go FIFO by acceptance. One tenant's
// thousand-cell sweep cannot starve another's smoke test.
func (s *Server) nextCellLocked() (cellRef, bool) {
	eligible := map[string]bool{}
	for _, j := range s.jobs {
		if !j.terminal() && len(j.pending) > 0 {
			eligible[j.tenant] = true
		}
	}
	if len(eligible) == 0 {
		return cellRef{}, false
	}
	tenants := make([]string, 0, len(eligible))
	for t := range eligible {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	pick := tenants[0]
	for _, t := range tenants {
		if t > s.rrPrev {
			pick = t
			break
		}
	}
	s.rrPrev = pick

	var next *job
	for _, j := range s.jobs {
		if j.terminal() || j.tenant != pick || len(j.pending) == 0 {
			continue
		}
		if next == nil || j.seq < next.seq {
			next = j
		}
	}
	idx := next.pending[0]
	next.pending = next.pending[1:]
	next.inflight++
	if next.state == StateQueued {
		next.state = StateRunning
		next.started = time.Now()
	}
	return cellRef{j: next, idx: idx}, true
}

// worker pulls cells under the scheduler lock and runs them outside it.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var ref cellRef
		var ok bool
		for {
			if s.closed {
				s.mu.Unlock()
				return
			}
			if ref, ok = s.nextCellLocked(); ok {
				break
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
		s.runCell(ref)
	}
}

// runCell executes one cell: journal hit → resumed for free; otherwise
// a guarded run whose result is journaled before it counts. The journal
// write preceding the in-memory "done" is what makes kill -9 lose at
// most the cells mid-flight.
//
// A run is a pure function of (scenario, seed), so only the host can
// make a second attempt end differently: a wall-time timeout (host
// load) or a refused journal write (the disk). Those two are retryable;
// a panic or a setup error would repeat exactly, so it is not.
func (s *Server) runCell(ref cellRef) {
	cell := ref.j.cells[ref.idx]
	dir := s.st.journalDir(ref.j.spec.Name)
	if res, ok, err := experiment.LoadJournaledCell(dir, cell.Scenario.Name, cell.Seed); err == nil && ok {
		s.cellDone(ref, res, nil, true, false)
		return
	}
	res, err := experiment.RunGuarded(cell.Scenario, cell.Seed, s.opts.SeedTimeout)
	var f *experiment.SeedFailure
	retry := errors.As(err, &f) && f.TimedOut
	if err == nil {
		if jerr := experiment.JournalCell(dir, res); jerr != nil {
			// The run was fine but is not durable, so it must not count.
			err = &experiment.SeedFailure{Scenario: cell.Scenario.Name, Seed: cell.Seed, Err: jerr.Error()}
			retry = true
		}
	}
	s.cellDone(ref, res, err, false, retry)
}

// cellDone folds one cell outcome into the job under the lock: success
// and resume settle the cell; a failure feeds the breaker and, when
// retry is set and attempts remain, goes back to the tail of the queue;
// the last settled cell finalizes the job.
func (s *Server) cellDone(ref cellRef, res experiment.Result, err error, resumed, retry bool) {
	j, idx := ref.j, ref.idx

	s.mu.Lock()
	defer s.mu.Unlock()
	j.inflight--
	if !resumed {
		j.attempts[idx]++
		s.m.cellsRun.Inc()
	} else {
		s.m.cellsResumed.Inc()
	}
	if j.terminal() {
		// The job was parked (breaker) while this cell was mid-flight;
		// its journal entry, if any, stands for a future resubmission.
		s.cond.Broadcast()
		return
	}

	switch {
	case err == nil:
		j.results[idx] = res
		j.done[idx] = true
		j.panics = 0
		if resumed {
			j.progress.CellResumed()
		} else {
			j.progress.CellDone(false)
			j.progress.AddEvents(res.EventsFired)
		}
		s.cellEventLocked(j, idx, true, resumed)

	default:
		f := asSeedFailure(err, j.cells[idx])
		if f.Panic == "" {
			// Timeouts, setup errors and journal refusals are not
			// evidence of a poisoned scenario; reset the streak.
			j.panics = 0
		} else {
			j.panics++
			if s.opts.BreakerK > 0 && j.panics >= s.opts.BreakerK {
				s.parkDegradedLocked(j, idx, f)
				s.cond.Broadcast()
				return
			}
		}
		if retry && j.attempts[idx] < s.opts.Attempts {
			j.pending = append(j.pending, idx)
			j.progress.CellRetried()
			s.m.cellsRetried.Inc()
			s.eventLocked(j, "retry", retryEventData{
				Scenario: j.cells[idx].Scenario.Name,
				Seed:     j.cells[idx].Seed,
				Attempt:  j.attempts[idx],
			})
		} else {
			j.failures[idx] = f
			j.done[idx] = true
			j.progress.CellDone(true)
			s.m.cellsFailed.Inc()
			s.cellEventLocked(j, idx, false, false)
		}
	}

	if j.outstanding() == 0 {
		s.finalizeLocked(j)
	}
	s.cond.Broadcast()
}

// asSeedFailure normalizes any run error into the dump-carrying form.
func asSeedFailure(err error, cell experiment.SweepCell) *experiment.SeedFailure {
	var f *experiment.SeedFailure
	if errors.As(err, &f) {
		return f
	}
	return &experiment.SeedFailure{Scenario: cell.Scenario.Name, Seed: cell.Seed, Err: err.Error()}
}

// parkDegradedLocked trips the job: the offending cell is recorded,
// every queued cell is dropped, the evidence is written to
// disk, and the job is parked StateDegraded. In-flight siblings drain
// harmlessly into the terminal check in cellDone.
func (s *Server) parkDegradedLocked(j *job, idx int, f *experiment.SeedFailure) {
	j.failures[idx] = f
	j.done[idx] = true
	j.progress.CellDone(true)
	s.m.cellsFailed.Inc()
	s.cellEventLocked(j, idx, false, false)
	j.pending = nil
	rec := degradedRecord{
		Reason: fmt.Sprintf("circuit breaker: %d consecutive panicking cells (K=%d)", s.opts.BreakerK, s.opts.BreakerK),
		Dumps:  dumpsOf(j),
	}
	if err := s.st.writeDegraded(j.spec.Name, rec); err != nil {
		rec.Reason += "; WARNING: degraded record not durable: " + err.Error()
	}
	s.m.jobsDegraded.Inc()
	s.eventLocked(j, "breaker", breakerEventData{Reason: rec.Reason})
	j.finish(StateDegraded)
	j.finishedAt = time.Now()
	s.eventLocked(j, "state", stateEventData{State: j.state})
	s.gcLocked()
}

// finalizeLocked settles a job whose every cell is done: artifacts are
// written (atomic, deterministic functions of the journaled results),
// then failure dumps if any, then the state flips.
func (s *Server) finalizeLocked(j *job) {
	if j.terminal() {
		return
	}
	dumps := dumpsOf(j)
	if err := s.st.writeArtifacts(j); err != nil {
		// Artifacts not durable: fail the job with the evidence rather
		// than claim success the disk cannot back.
		dumps = append(dumps, failureDump{
			Scenario: j.scenario.Name, Error: "writing artifacts: " + err.Error(),
		})
	}
	if len(dumps) > 0 {
		// Best effort: the in-memory state flips regardless; a restart
		// re-derives failed-vs-done from what actually landed.
		s.st.writeFailures(j.spec.Name, dumps)
		s.m.jobsFailed.Inc()
		j.finish(StateFailed)
	} else {
		s.m.jobsDone.Inc()
		j.finish(StateDone)
	}
	j.finishedAt = time.Now()
	s.eventLocked(j, "state", stateEventData{State: j.state})
	s.gcLocked()
}

// statusLocked renders a job's live state.
func (s *Server) statusLocked(j *job) JobStatus {
	snap := j.progress.Snapshot()
	st := JobStatus{
		Name:    j.spec.Name,
		Tenant:  j.tenant,
		State:   j.state,
		Cells:   snap,
		Retries: snap.Retried,
	}
	if j.state == StateRunning {
		if eta := snap.ETA(time.Since(j.started)); eta > 0 {
			st.ETA = eta.Round(time.Second).String()
		}
	}
	for _, f := range j.failures {
		if f != nil {
			st.Failures = append(st.Failures, f.Error())
		}
	}
	if j.terminal() {
		if len(st.Failures) == 0 {
			// Recovered terminal jobs keep their dumps on disk only.
			if j.state == StateDegraded {
				if rec, err := s.st.readDegraded(j.spec.Name); err == nil {
					st.Failures = append(st.Failures, rec.Reason)
					for _, d := range rec.Dumps {
						st.Failures = append(st.Failures, d.Error)
					}
				}
			} else if j.state == StateFailed {
				if dumps, err := s.st.readFailures(j.spec.Name); err == nil {
					for _, d := range dumps {
						st.Failures = append(st.Failures, d.Error)
					}
				}
			}
		}
		st.Artifacts = s.st.artifactNames(j.spec.Name)
	}
	return st
}

// Status reports one job.
func (s *Server) Status(name string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(j), true
}

// Statuses lists every job, sorted by name.
func (s *Server) Statuses() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.jobs))
	for name := range s.jobs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]JobStatus, 0, len(names))
	for _, name := range names {
		out = append(out, s.statusLocked(s.jobs[name]))
	}
	return out
}

// Wait blocks until the named job reaches a terminal state and returns
// its final status. Unknown names return ok=false immediately.
func (s *Server) Wait(name string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[name]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	<-j.finished
	return s.Status(name)
}

// Ready reports whether the daemon should accept traffic: not draining
// and the queue below its cap.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && s.loadLocked() < s.opts.QueueCap
}

// Shutdown drains gracefully: submissions and dispatch stop, and every
// in-flight cell finishes and reaches its journal checkpoint before
// Shutdown returns. Restarting over the same data directory resumes
// exactly there.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// --- HTTP surface ---

// Handler returns the daemon's HTTP API:
//
//	POST /jobs                       submit a JobSpec (202 / 200 idempotent /
//	                                 409 conflict / 429 overload / 503 draining)
//	GET  /jobs                       list job statuses
//	GET  /jobs/{name}                one job's status
//	GET  /jobs/{name}/events         live progress as SSE (Last-Event-ID resume)
//	GET  /jobs/{name}/artifacts/{f}  download an artifact
//	GET  /healthz                    process liveness (always 200)
//	GET  /readyz                     200 iff accepting work, else 503
//	GET  /metrics                    Prometheus text (?format=json for the raw snapshot)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			data, err := json.MarshalIndent(s.opts.Registry, "", "  ")
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Write(append(data, '\n'))
			return
		}
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		s.opts.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, "{%q: %q}\n", "error", err.Error())
		return
	}
	w.Write(append(data, '\n'))
}

type httpError struct {
	Error string `json:"error"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.Statuses())
	case http.MethodPost:
		js, err := DecodeJobSpec(r.Body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
			return
		}
		status, err := s.Submit(js)
		switch {
		case err == nil:
			code := http.StatusAccepted
			if status.State != StateQueued {
				code = http.StatusOK // idempotent resubmission
			}
			writeJSON(w, code, status)
		case errors.Is(err, ErrDraining):
			writeJSON(w, http.StatusServiceUnavailable, httpError{Error: err.Error()})
		case errors.Is(err, ErrConflict):
			writeJSON(w, http.StatusConflict, httpError{Error: err.Error()})
		default:
			var oe OverloadError
			if errors.As(err, &oe) {
				w.Header().Set("Retry-After", strconv.Itoa(int(oe.RetryAfter/time.Second)))
				writeJSON(w, http.StatusTooManyRequests, httpError{Error: oe.Error()})
				return
			}
			writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "method not allowed"})
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "method not allowed"})
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	parts := strings.Split(rest, "/")
	name := parts[0]
	if sanitizeJobName(name) != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "bad job name"})
		return
	}
	switch {
	case len(parts) == 1:
		status, ok := s.Status(name)
		if !ok {
			writeJSON(w, http.StatusNotFound, httpError{Error: "no such job"})
			return
		}
		writeJSON(w, http.StatusOK, status)
	case len(parts) == 2 && parts[1] == "events":
		s.handleEvents(w, r, name)
	case len(parts) == 3 && parts[1] == "artifacts":
		file := parts[2]
		if file == "" || strings.ContainsAny(file, "/\\") || strings.HasPrefix(file, ".") {
			writeJSON(w, http.StatusBadRequest, httpError{Error: "bad artifact name"})
			return
		}
		if _, ok := s.Status(name); !ok {
			writeJSON(w, http.StatusNotFound, httpError{Error: "no such job"})
			return
		}
		path := filepath.Join(s.st.artifactsDir(name), file)
		if _, err := os.Stat(path); err != nil {
			writeJSON(w, http.StatusNotFound, httpError{Error: "no such artifact"})
			return
		}
		http.ServeFile(w, r, path)
	default:
		writeJSON(w, http.StatusNotFound, httpError{Error: "not found"})
	}
}
