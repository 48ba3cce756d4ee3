package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dcfguard/internal/atomicio"
	"dcfguard/internal/experiment"
)

// On-disk layout. Disk is the single source of truth — the daemon's
// in-memory state is a cache rebuilt on start — so kill -9 at any
// instant is recoverable:
//
//	<data>/jobs/<name>/spec.json              the accepted submission
//	<data>/jobs/<name>/journal/<cell>.json    per-cell checkpoints
//	<data>/jobs/<name>/artifacts/…            final outputs (terminal)
//	<data>/jobs/<name>/failures.json          failure dumps (failed)
//	<data>/jobs/<name>/degraded.json          breaker trip + dumps
//
// Every file is written through atomicio.WriteFile, and ordering gives
// the crash-safety argument its teeth: spec.json lands before the 202
// response (an acknowledged job cannot be forgotten), a cell's journal
// entry lands before the cell counts as finished (a lost race reruns
// the cell, bit-identically), and artifacts land before the terminal
// marker is believed (artifacts present ⇒ they are complete).

// A store addresses one data directory.
type store struct {
	dir string
}

// sanitizeJobName reports whether the name can serve as a directory
// key; it shares the journal's conservative alphabet and must not be
// empty or escape the jobs directory.
func sanitizeJobName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: job has no name")
	}
	if len(name) > 128 {
		return fmt.Errorf("serve: job name longer than 128 bytes")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("serve: job name %q: character %q outside [a-zA-Z0-9._-]", name, r)
		}
	}
	if strings.Trim(name, ".") == "" {
		return fmt.Errorf("serve: job name %q is all dots", name)
	}
	return nil
}

func (st store) jobsDir() string           { return filepath.Join(st.dir, "jobs") }
func (st store) jobDir(name string) string { return filepath.Join(st.jobsDir(), name) }
func (st store) specPath(name string) string {
	return filepath.Join(st.jobDir(name), "spec.json")
}
func (st store) journalDir(name string) string {
	return filepath.Join(st.jobDir(name), "journal")
}
func (st store) artifactsDir(name string) string {
	return filepath.Join(st.jobDir(name), "artifacts")
}
func (st store) failuresPath(name string) string {
	return filepath.Join(st.jobDir(name), "failures.json")
}
func (st store) degradedPath(name string) string {
	return filepath.Join(st.jobDir(name), "degraded.json")
}

// writeSpec durably records an accepted submission: directories first,
// then the atomic spec write. Runs before the 202 leaves the server.
func (st store) writeSpec(js JobSpec) error {
	for _, d := range []string{st.jobDir(js.Name), st.journalDir(js.Name), st.artifactsDir(js.Name)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fmt.Errorf("serve: store: %w", err)
		}
	}
	data, err := json.MarshalIndent(js, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	return atomicio.WriteFile(st.specPath(js.Name), append(data, '\n'), 0o644)
}

// readSpec loads a recorded submission.
func (st store) readSpec(name string) (JobSpec, error) {
	data, err := os.ReadFile(st.specPath(name))
	if err != nil {
		return JobSpec{}, err
	}
	js, err := DecodeJobSpec(strings.NewReader(string(data)))
	if err != nil {
		return JobSpec{}, err
	}
	return js, nil
}

// listJobs returns every job directory holding a spec.json, sorted.
func (st store) listJobs() ([]string, error) {
	entries, err := os.ReadDir(st.jobsDir())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(st.specPath(e.Name())); err == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// failureDump is the serialized form of one cell failure.
type failureDump struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
	Dump     string `json:"dump"`
}

func dumpsOf(job *job) []failureDump {
	var dumps []failureDump
	for i, f := range job.failures {
		if f == nil {
			continue
		}
		dumps = append(dumps, failureDump{
			Scenario: f.Scenario,
			Seed:     f.Seed,
			Attempts: job.attempts[i],
			Error:    f.Error(),
			Dump:     f.Dump(),
		})
	}
	return dumps
}

// writeFailures records the failure dumps of a job that completed with
// failed cells.
func (st store) writeFailures(name string, dumps []failureDump) error {
	data, err := json.MarshalIndent(dumps, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	return atomicio.WriteFile(st.failuresPath(name), append(data, '\n'), 0o644)
}

// degradedRecord parks a breaker-tripped job with its evidence.
type degradedRecord struct {
	Reason string        `json:"reason"`
	Dumps  []failureDump `json:"dumps"`
}

func (st store) writeDegraded(name string, rec degradedRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	return atomicio.WriteFile(st.degradedPath(name), append(data, '\n'), 0o644)
}

func (st store) readDegraded(name string) (degradedRecord, error) {
	var rec degradedRecord
	data, err := os.ReadFile(st.degradedPath(name))
	if err != nil {
		return rec, err
	}
	err = json.Unmarshal(data, &rec)
	return rec, err
}

func (st store) readFailures(name string) ([]failureDump, error) {
	var dumps []failureDump
	data, err := os.ReadFile(st.failuresPath(name))
	if err != nil {
		return nil, err
	}
	err = json.Unmarshal(data, &dumps)
	return dumps, err
}

// writeArtifacts renders the job's final outputs — the same CSV/JSON
// the macsim sweep path writes, byte-for-byte deterministic in the
// results — into the artifacts directory. Written only when every cell
// has a result or a recorded failure.
func (st store) writeArtifacts(job *job) error {
	var ok []experiment.Result
	for i, r := range job.results {
		if job.done[i] && job.failures[i] == nil {
			ok = append(ok, r)
		}
	}
	dir := st.artifactsDir(job.spec.Name)
	csv := experiment.ResultsCSV(job.results)
	if err := atomicio.WriteFile(filepath.Join(dir, "results.csv"), []byte(csv), 0o644); err != nil {
		return err
	}
	resJSON, err := json.MarshalIndent(job.results, "", "  ")
	if err != nil {
		return err
	}
	if err := atomicio.WriteFile(filepath.Join(dir, "results.json"), append(resJSON, '\n'), 0o644); err != nil {
		return err
	}
	agg := experiment.AggregateResults(job.scenario.Name, ok)
	aggJSON, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(filepath.Join(dir, "aggregate.json"), append(aggJSON, '\n'), 0o644)
}

// artifactNames lists the job's downloadable artifacts, sorted.
func (st store) artifactNames(name string) []string {
	entries, err := os.ReadDir(st.artifactsDir(name))
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// removeJob deletes a job's entire directory — spec, journal, artifacts
// and dumps. Retention GC only; callers must have removed the job from
// the in-memory table first.
func (st store) removeJob(name string) error {
	if err := sanitizeJobName(name); err != nil {
		return err
	}
	return os.RemoveAll(st.jobDir(name))
}

// terminalStamp reports when a recovered job turned terminal: the mtime
// of its terminal disk marker (degraded.json, else artifacts). Zero when
// neither exists.
func (st store) terminalStamp(name string) time.Time {
	if fi, err := os.Stat(st.degradedPath(name)); err == nil {
		return fi.ModTime()
	}
	if fi, err := os.Stat(filepath.Join(st.artifactsDir(name), "results.json")); err == nil {
		return fi.ModTime()
	}
	return time.Time{}
}

// terminalState derives a recovered job's state from disk truth alone:
// a degraded marker parks it, artifacts mean it finished (failures.json
// deciding done vs failed), anything else resumes.
func (st store) terminalState(name string) string {
	if _, err := os.Stat(st.degradedPath(name)); err == nil {
		return StateDegraded
	}
	if _, err := os.Stat(filepath.Join(st.artifactsDir(name), "results.json")); err == nil {
		if _, err := os.Stat(st.failuresPath(name)); err == nil {
			return StateFailed
		}
		return StateDone
	}
	return ""
}
