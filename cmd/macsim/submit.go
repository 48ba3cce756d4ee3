package main

// macsim -submit: the CLI as a thin client of dcfserved. The spec
// scenarioSpec builds for a local run is wrapped in a job spec and
// shipped to the daemon (honoring 429 Retry-After on the way in); the
// client then follows the job's SSE progress stream to its terminal
// state, fetches the final status once, and optionally downloads
// results.csv — so a daemon-submitted sweep is interchangeable with
// `macsim -seeds`, down to the CSV bytes.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"dcfguard/internal/atomicio"
	"dcfguard/internal/experiment"
	"dcfguard/internal/serve"
)

// retryAfterHint reads a 429's Retry-After header (seconds), falling
// back when absent or unparsable.
func retryAfterHint(resp *http.Response, fallback time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return fallback
}

func terminalState(state string) bool {
	switch state {
	case serve.StateDone, serve.StateFailed, serve.StateDegraded:
		return true
	}
	return false
}

// followCell mirrors the daemon's "cell" SSE payload.
type followCell struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	OK       bool   `json:"ok"`
	Resumed  bool   `json:"resumed"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Failed   int    `json:"failed"`
	ETA      string `json:"eta"`
}

// followJob consumes GET /jobs/{name}/events as Server-Sent Events,
// printing each cell settlement, retry and breaker trip as it happens. A
// dropped connection reconnects with Last-Event-ID, so every cell event
// is observed exactly once; the function returns when the daemon ends
// the stream with the job's terminal state event.
func followJob(base, name string) error {
	var lastID string
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodGet, base+"/jobs/"+name+"/events", nil)
		if err != nil {
			return err
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if attempt >= 10 {
				return fmt.Errorf("follow: %v (giving up after %d attempts)", err, attempt+1)
			}
			fmt.Fprintf(os.Stderr, "follow: %v: reconnecting\n", err)
			time.Sleep(time.Second)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return fmt.Errorf("follow: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		terminal := consumeEvents(resp.Body, &lastID)
		resp.Body.Close()
		if terminal {
			return nil
		}
		if attempt >= 10 {
			return fmt.Errorf("follow: stream kept dropping (giving up after %d attempts)", attempt+1)
		}
		fmt.Fprintln(os.Stderr, "follow: stream dropped, resuming")
		time.Sleep(time.Second)
	}
}

// consumeEvents reads SSE frames off one connection, rendering each as a
// progress line and advancing the resume cursor. It reports whether the
// stream reached the job's terminal state (its normal end); false means
// the connection dropped and the caller should resume.
func consumeEvents(body io.Reader, lastID *string) (terminal bool) {
	br := bufio.NewReader(body)
	var id, kind, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return false
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if kind == "" && data == "" {
				continue
			}
			if id != "" {
				*lastID = id
			}
			if printFollowEvent(kind, data) {
				return true
			}
			id, kind, data = "", "", ""
		}
	}
}

// printFollowEvent renders one event to stderr; it reports true on a
// terminal state event.
func printFollowEvent(kind, data string) bool {
	switch kind {
	case "cell":
		var c followCell
		if json.Unmarshal([]byte(data), &c) != nil {
			return false
		}
		verdict := "ok"
		switch {
		case !c.OK:
			verdict = "FAILED"
		case c.Resumed:
			verdict = "resumed"
		}
		line := fmt.Sprintf("cell %s seed %d %s: %d/%d done", c.Scenario, c.Seed, verdict, c.Done, c.Total)
		if c.Failed > 0 {
			line += fmt.Sprintf(", %d failed", c.Failed)
		}
		if c.ETA != "" {
			line += ", eta " + c.ETA
		}
		fmt.Fprintln(os.Stderr, line)
	case "retry":
		var r struct {
			Scenario string `json:"scenario"`
			Seed     uint64 `json:"seed"`
			Attempt  int    `json:"attempt"`
			Delay    string `json:"delay"`
		}
		if json.Unmarshal([]byte(data), &r) == nil {
			fmt.Fprintf(os.Stderr, "cell %s seed %d: retry (attempt %d) in %s\n", r.Scenario, r.Seed, r.Attempt, r.Delay)
		}
	case "breaker":
		var b struct {
			Reason string `json:"reason"`
		}
		if json.Unmarshal([]byte(data), &b) == nil {
			fmt.Fprintf(os.Stderr, "breaker tripped: %s\n", b.Reason)
		}
	case "state":
		var s struct {
			State string `json:"state"`
		}
		if json.Unmarshal([]byte(data), &s) == nil {
			fmt.Fprintf(os.Stderr, "state: %s\n", s.State)
			return terminalState(s.State)
		}
	}
	return false
}

// getStatus fetches one job's status.
func getStatus(base, name string) (serve.JobStatus, error) {
	var st serve.JobStatus
	resp, err := http.Get(base + "/jobs/" + name)
	if err != nil {
		return st, err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	err = json.Unmarshal(data, &st)
	return st, err
}

// jobSpec wraps the run's scenario spec in the job -submit sends.
func (c *cli) jobSpec(sp experiment.ScenarioSpec) serve.JobSpec {
	js := serve.JobSpec{Name: c.job, Tenant: c.tenant, Scenario: sp}
	if js.Name == "" {
		js.Name = fmt.Sprintf("macsim-%s-pm%d", sp.Name, sp.PM)
	}
	if c.seeds > 0 {
		js.Seeds = c.seeds
	} else {
		js.SeedList = []uint64{c.seed}
	}
	return js
}

// runSubmit is the client-mode main loop: submit (with 429 backoff),
// follow to terminal, download, and translate the final state into the
// process exit code.
func runSubmit(c *cli, sp experiment.ScenarioSpec) error {
	body, err := json.Marshal(c.jobSpec(sp))
	if err != nil {
		return err
	}

	base := strings.TrimSuffix(c.submit, "/")
	var status serve.JobStatus
	for attempt := 1; ; attempt++ {
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if attempt >= 10 {
				return fmt.Errorf("daemon still overloaded after %d attempts", attempt)
			}
			wait := retryAfterHint(resp, 2*time.Second)
			fmt.Fprintf(os.Stderr, "daemon busy (429): retrying in %s\n", wait)
			time.Sleep(wait)
			continue
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
		}
		if err := json.Unmarshal(data, &status); err != nil {
			return fmt.Errorf("submit: decoding response: %v", err)
		}
		break
	}
	fmt.Printf("submitted %q (%d cells) to %s\n", status.Name, status.Cells.Total, base)

	// The event stream always ends with the job's terminal state event;
	// fetch the final status once for the artifact list and failure
	// summary.
	if err := followJob(base, status.Name); err != nil {
		return err
	}
	if status, err = getStatus(base, status.Name); err != nil {
		return err
	}

	if c.csvPath != "" && status.State != serve.StateDegraded {
		resp, err := http.Get(base + "/jobs/" + status.Name + "/artifacts/results.csv")
		if err != nil {
			return err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("downloading results.csv: %s", resp.Status)
		}
		if err := atomicio.WriteFile(c.csvPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", c.csvPath, len(data))
	}

	switch status.State {
	case serve.StateDone:
		fmt.Printf("%s: done (%d cells, %d retries)\n", status.Name, status.Cells.Done, status.Retries)
		return nil
	default:
		for _, f := range status.Failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		return fmt.Errorf("job %s: %s", status.Name, status.State)
	}
}
