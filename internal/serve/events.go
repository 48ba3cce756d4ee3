package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Live job streaming: GET /jobs/{name}/events emits the job's progress
// as Server-Sent Events. Every event the scheduler produces is appended
// to an in-memory, per-job log with a monotonically increasing id; a
// handler replays everything after the client's Last-Event-ID and then
// follows the log until the job is terminal. Reconnecting with the last
// id received therefore observes every event exactly once within one
// daemon lifetime — the log is memory, not disk; after a restart the
// stream of a recovered terminal job collapses to its final state
// event. Event kinds:
//
//	cell     a cell settled (success, resume, or final failure)
//	retry    a timed-out or undurable cell went back to the queue's tail
//	breaker  the panic breaker tripped
//	state    the job changed state; a terminal state ends the stream
//
// The payloads are JSON, pre-rendered under the server mutex at emission
// time so a slow client can never observe torn scheduler state.

// jobEvent is one pre-rendered SSE event.
type jobEvent struct {
	id   uint64
	kind string
	data string
}

// eventLocked appends one event to the job's log and wakes streamers.
// Callers hold s.mu.
func (s *Server) eventLocked(j *job, kind string, payload any) {
	j.nextEvent++
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(`{}`)
	}
	j.events = append(j.events, jobEvent{id: j.nextEvent, kind: kind, data: string(data)})
	s.cond.Broadcast()
}

// cellEventData is the payload of a "cell" event.
type cellEventData struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	OK       bool   `json:"ok"`
	Resumed  bool   `json:"resumed,omitempty"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Failed   int    `json:"failed,omitempty"`
	ETA      string `json:"eta,omitempty"`
}

// cellEventLocked renders and appends the settlement event for one cell.
func (s *Server) cellEventLocked(j *job, idx int, ok, resumed bool) {
	snap := j.progress.Snapshot()
	d := cellEventData{
		Scenario: j.cells[idx].Scenario.Name,
		Seed:     j.cells[idx].Seed,
		OK:       ok,
		Resumed:  resumed,
		Done:     snap.Done,
		Total:    snap.Total,
		Failed:   snap.Failed,
	}
	if j.state == StateRunning {
		if eta := snap.ETA(time.Since(j.started)); eta > 0 {
			d.ETA = eta.Round(time.Second).String()
		}
	}
	s.eventLocked(j, "cell", d)
}

// retryEventData is the payload of a "retry" event.
type retryEventData struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Attempt  int    `json:"attempt"`
}

// breakerEventData is the payload of a "breaker" event.
type breakerEventData struct {
	Reason string `json:"reason"`
}

// stateEventData is the payload of a "state" event.
type stateEventData struct {
	State string `json:"state"`
}

// handleEvents streams one job's event log as SSE.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, name string) {
	s.mu.Lock()
	j, ok := s.jobs[name]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, httpError{Error: "no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, httpError{Error: "streaming unsupported"})
		return
	}

	// Resume point: the standard Last-Event-ID header, or ?last= for
	// curl-style consumers.
	var last uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		last, _ = strconv.ParseUint(v, 10, 64)
	} else if v := r.URL.Query().Get("last"); v != "" {
		last, _ = strconv.ParseUint(v, 10, 64)
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// The streamer parks on the server cond; a vanished client can only
	// be noticed at a wakeup, so the context watcher broadcasts once the
	// request dies.
	ctx := r.Context()
	watcher := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		case <-watcher:
		}
	}()
	defer close(watcher)

	lastWasState := false
	for {
		s.mu.Lock()
		for ctx.Err() == nil && !j.terminal() && (len(j.events) == 0 || j.events[len(j.events)-1].id <= last) {
			s.cond.Wait()
		}
		if ctx.Err() != nil {
			s.mu.Unlock()
			return
		}
		var batch []jobEvent
		for _, ev := range j.events {
			if ev.id > last {
				batch = append(batch, ev)
			}
		}
		terminal := j.terminal()
		state := j.state
		s.mu.Unlock()

		for _, ev := range batch {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.id, ev.kind, ev.data)
			last = ev.id
			lastWasState = ev.kind == "state"
		}
		fl.Flush()

		if terminal {
			if !lastWasState {
				// The log predates this daemon (recovered job) or the
				// client resumed past its end: close with a synthesized
				// final state event so every stream ends the same way.
				data, _ := json.Marshal(stateEventData{State: state})
				fmt.Fprintf(w, "id: %d\nevent: state\ndata: %s\n\n", last, data)
				fl.Flush()
			}
			return
		}
	}
}
