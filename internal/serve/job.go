package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dcfguard/internal/experiment"
)

// Job lifecycle. A submitted JobSpec fans out into (scenario, seed)
// cells; the job's state is a pure function of its cells' outcomes:
//
//	queued ──▶ running ──▶ done        every cell produced a result
//	                  └──▶ failed      ≥1 cell exhausted its retries
//	                  └──▶ degraded    the panic breaker tripped; the
//	                                   job is parked with its dumps
//
// Terminal states are recorded on disk (artifacts + failures/degraded
// dumps); everything before that is reconstructed from spec.json and
// the journal on restart, so kill -9 at any instant loses at most the
// cells that were mid-flight — and those rerun to bit-identical results.

// JobSpec is the submission wire format. Seeds n runs seeds 1..n;
// SeedList pins an explicit set instead.
type JobSpec struct {
	// Name is the job's identity AND its directory key: resubmitting
	// the same name with the same spec is idempotent, with a different
	// spec a conflict. It shares the journal's sanitised alphabet.
	Name string `json:"name"`
	// Tenant buckets the job for fair scheduling ("" = "default"):
	// cells are dispatched round-robin across tenants, so one tenant's
	// thousand-cell sweep cannot starve another's smoke test.
	Tenant   string                  `json:"tenant,omitempty"`
	Scenario experiment.ScenarioSpec `json:"scenario"`
	Seeds    int                     `json:"seeds,omitempty"`
	SeedList []uint64                `json:"seed_list,omitempty"`
}

// DecodeJobSpec decodes one JSON job spec, rejecting unknown fields and
// trailing garbage.
func DecodeJobSpec(r io.Reader) (JobSpec, error) {
	var js JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		return JobSpec{}, fmt.Errorf("serve: decoding job spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobSpec{}, fmt.Errorf("serve: trailing data after job spec")
	}
	return js, nil
}

// seeds materialises the seed set.
func (js JobSpec) seeds() ([]uint64, error) {
	switch {
	case js.Seeds != 0 && len(js.SeedList) > 0:
		return nil, fmt.Errorf("serve: job %q sets both seeds and seed_list", js.Name)
	case js.Seeds < 0:
		return nil, fmt.Errorf("serve: job %q: seeds %d", js.Name, js.Seeds)
	case js.Seeds > 0:
		return experiment.Seeds(js.Seeds), nil
	case len(js.SeedList) > 0:
		return append([]uint64(nil), js.SeedList...), nil
	default:
		return experiment.Seeds(1), nil
	}
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateDegraded = "degraded"
)

// JobStatus is the wire form of a job's live state.
type JobStatus struct {
	Name     string                   `json:"name"`
	Tenant   string                   `json:"tenant"`
	State    string                   `json:"state"`
	Cells    experiment.SweepSnapshot `json:"cells"`
	Retries  int                      `json:"retries"`
	ETA      string                   `json:"eta,omitempty"`
	Failures []string                 `json:"failures,omitempty"`
	// Artifacts lists downloadable artifact names once terminal.
	Artifacts []string `json:"artifacts,omitempty"`
}

// job is the scheduler's runtime state for one submission. The server's
// mutex guards every field after construction.
type job struct {
	spec     JobSpec
	tenant   string
	scenario experiment.Scenario
	seeds    []uint64
	cells    []experiment.SweepCell

	// seq orders jobs by acceptance within a tenant (FIFO tiebreak).
	seq uint64

	state    string
	pending  []int // cell indexes not yet dispatched (head = next)
	inflight int   // cells handed to workers and not yet finished
	waiting  int   // cells parked on a backoff timer
	// stops holds the cancel funcs of armed backoff timers, by cell.
	stops    map[int]func()
	results  []experiment.Result
	done     []bool
	failures []*experiment.SeedFailure
	attempts []int // per-cell attempts consumed
	retries  int   // total retries scheduled (for status/metrics)
	breaker  Breaker
	progress *experiment.SweepProgress
	// started is the wall instant the job left the queue, for the
	// status ETA only — never a scheduling input.
	started time.Time
	// finished closes when the job reaches a terminal state.
	finished chan struct{}
	// finishedAt is the wall instant the job turned terminal (recovered
	// jobs: the mtime of their terminal disk marker). Retention keeps
	// the newest N terminal jobs by this stamp.
	finishedAt time.Time
	// events is the in-memory SSE log (see events.go); nextEvent is the
	// id of the last event appended.
	events    []jobEvent
	nextEvent uint64
}

func (j *job) terminal() bool {
	switch j.state {
	case StateDone, StateFailed, StateDegraded:
		return true
	}
	return false
}

// outstanding reports cells not yet journaled/failed — dispatched,
// running, or sitting out a backoff — the job's contribution to the
// admission-controlled backlog.
func (j *job) outstanding() int {
	return len(j.pending) + j.inflight + j.waiting
}

// finish marks the terminal state and wakes every waiter.
func (j *job) finish(state string) {
	if j.terminal() {
		return
	}
	j.state = state
	close(j.finished)
}
