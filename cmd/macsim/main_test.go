package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcfguard"
	"dcfguard/internal/experiment"
	"dcfguard/internal/serve"
)

// buildScenario runs the flag path a local run takes: flags → spec →
// Scenario.
func buildScenario(args ...string) (experiment.ScenarioSpec, experiment.Scenario, error) {
	c, err := parseCLI(args)
	if err != nil {
		return experiment.ScenarioSpec{}, experiment.Scenario{}, err
	}
	sp, err := c.scenarioSpec()
	if err != nil {
		return sp, experiment.Scenario{}, err
	}
	s, err := sp.ToScenario()
	return sp, s, err
}

func TestFlagsToScenario(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
		check   func(t *testing.T, sp experiment.ScenarioSpec, s experiment.Scenario)
	}{
		{name: "defaults", check: func(t *testing.T, sp experiment.ScenarioSpec, s experiment.Scenario) {
			def := experiment.DefaultScenario()
			if s.Name != "zero-flow" || s.Protocol != def.Protocol || s.Strategy != def.Strategy ||
				s.Channel != def.Channel || s.Duration != def.Duration || s.Shards != 0 || s.Faults.Enabled() {
				t.Fatalf("defaults drifted from DefaultScenario: %+v", sp)
			}
			if got := s.Topo(1).Misbehaving; len(got) != 1 || got[0] != 3 {
				t.Fatalf("star misbehavers %v, want [3]", got)
			}
		}},
		{name: "protocol 802.11", args: []string{"-protocol", "802.11"}, check: wantProtocol(experiment.Protocol80211)},
		{name: "protocol 80211", args: []string{"-protocol", "80211"}, check: wantProtocol(experiment.Protocol80211)},
		{name: "protocol correct", args: []string{"-protocol", "correct"}, check: wantProtocol(experiment.ProtocolCorrect)},
		{name: "protocol CORRECT", args: []string{"-protocol", "CORRECT"}, check: wantProtocol(experiment.ProtocolCorrect)},
		{name: "protocol unknown", args: []string{"-protocol", "aloha"}, wantErr: "unknown protocol"},
		{name: "strategy unknown", args: []string{"-strategy", "greedy"}, wantErr: "unknown strategy"},
		{name: "two-flow star", args: []string{"-two-flow", "-mis-node", "0"}, check: func(t *testing.T, _ experiment.ScenarioSpec, s experiment.Scenario) {
			if s.Name != "two-flow" || len(s.Topo(1).Misbehaving) != 0 {
				t.Fatalf("name %q, misbehavers %v", s.Name, s.Topo(1).Misbehaving)
			}
		}},
		{name: "random", args: []string{"-random", "40", "-mis", "4"}, check: func(t *testing.T, _ experiment.ScenarioSpec, s experiment.Scenario) {
			tp := s.Topo(1)
			if s.Name != "random-40" || len(tp.Positions) != 40 || len(tp.Misbehaving) != 4 {
				t.Fatalf("name %q, %d nodes, %d misbehavers", s.Name, len(tp.Positions), len(tp.Misbehaving))
			}
		}},
		{name: "scaled random", args: []string{"-random", "40", "-scaled"}, check: func(t *testing.T, sp experiment.ScenarioSpec, s experiment.Scenario) {
			if sp.Topo.Kind != "scaled-random" || s.Name != "random-40" {
				t.Fatalf("topo %+v, name %q", sp.Topo, s.Name)
			}
		}},
		{name: "fer", args: []string{"-fer", "0.2"}, check: func(t *testing.T, _ experiment.ScenarioSpec, s experiment.Scenario) {
			if s.Faults.FER != 0.2 || s.Faults.Burst != nil {
				t.Fatalf("faults %+v", s.Faults)
			}
		}},
		{name: "burst replaces fer", args: []string{"-fer", "0.2", "-burst", "0.1,0.25"}, check: func(t *testing.T, _ experiment.ScenarioSpec, s experiment.Scenario) {
			if s.Faults.FER != 0 || s.Faults.Burst == nil || s.Faults.Burst.PBadGood != 0.25 {
				t.Fatalf("faults %+v", s.Faults)
			}
		}},
		{name: "burst malformed", args: []string{"-burst", "0.1"}, wantErr: "-burst"},
		{name: "burst out of range", args: []string{"-burst", "1.5,0.25"}, wantErr: "need fer in [0,1)"},
		{name: "churn", args: []string{"-churn", "5s,200ms"}, check: func(t *testing.T, _ experiment.ScenarioSpec, s experiment.Scenario) {
			if s.Faults.ChurnInterval != dcfguard.Time(5*time.Second) || s.Faults.ChurnDowntime != dcfguard.Time(200*time.Millisecond) {
				t.Fatalf("faults %+v", s.Faults)
			}
		}},
		{name: "churn malformed", args: []string{"-churn", "often"}, wantErr: "churn_interval"},
		{name: "churn downtime malformed", args: []string{"-churn", "5s,briefly"}, wantErr: "churn_downtime"},
		{name: "mac and core knobs", args: []string{"-basic", "-adaptive", "-block"}, check: func(t *testing.T, _ experiment.ScenarioSpec, s experiment.Scenario) {
			if !s.MAC.BasicAccess || !s.Core.AdaptiveThresh || !s.Core.BlockDiagnosed {
				t.Fatalf("mac %+v core %+v", s.MAC, s.Core)
			}
		}},
		{name: "series and timeline", args: []string{"-series", "-timeline", "8"}, check: func(t *testing.T, _ experiment.ScenarioSpec, s experiment.Scenario) {
			if s.BinSize != dcfguard.Second || s.TraceEvents != 8 {
				t.Fatalf("bin %v, trace events %d", s.BinSize, s.TraceEvents)
			}
		}},
		{name: "shards need v3", args: []string{"-shards", "2"}, wantErr: "require channel model v3"},
		{name: "shards on v3", args: []string{"-shards", "2", "-channel", "v3"}, check: func(t *testing.T, _ experiment.ScenarioSpec, s experiment.Scenario) {
			if s.Shards != 2 || s.Channel != experiment.ChannelV3 {
				t.Fatalf("shards %d channel %v", s.Shards, s.Channel)
			}
		}},
		{name: "negative shards", args: []string{"-shards", "-1"}, wantErr: "negative shard count"},
		{name: "channel unknown", args: []string{"-channel", "v9"}, wantErr: "unknown channel model"},
		{name: "pcap without timeline", args: []string{"-pcap", "f.pcap"}, wantErr: "-pcap requires -timeline"},
		{name: "journal without seeds", args: []string{"-journal", "j"}, wantErr: "-journal requires -seeds"},
		{name: "negative mis-node", args: []string{"-mis-node", "-2"}, wantErr: "-mis-node -2"},
		{name: "negative seeds", args: []string{"-seeds", "-3"}, wantErr: "-seeds -3"},
		{name: "mis-node past senders", args: []string{"-mis-node", "99"}, wantErr: "misbehaving id 99 outside senders 1..8"},
		{name: "two-flow one sender", args: []string{"-two-flow", "-senders", "1"}, wantErr: "misbehaving id 3 outside senders 1..1"},
		{name: "random one node", args: []string{"-random", "1"}, wantErr: "nodes 1 (want at least 2)"},
		{name: "random negative mis", args: []string{"-random", "3", "-mis", "-1"}, wantErr: "mis -1 outside 0..3"},
		{name: "random mis past nodes", args: []string{"-random", "2", "-mis", "5"}, wantErr: "mis 5 outside 0..2"},
		{name: "follow without submit", args: []string{"-follow"}, wantErr: "-follow require -submit"},
		{name: "job and tenant without submit", args: []string{"-tenant", "a", "-job", "b"}, wantErr: "-job, -tenant require -submit"},
		{name: "submit rejects local-only flags", wantErr: "does not read -cpuprofile, -debug-addr, -diag-csv, -explain, -explain-json, -journal, -memprofile, -metrics, -pcap, -per-node, -progress, -seedtimeout, -series, -timeline, -trace, -trace-events, -trace-out",
			args: []string{"-submit", "http://127.0.0.1:1", "-timeline", "3", "-pcap", "p", "-series", "-per-node", "-journal", "j",
				"-seedtimeout", "1s", "-metrics", "m", "-trace-events", "all", "-trace-out", "t", "-diag-csv", "d", "-explain", "3",
				"-explain-json", "e", "-progress", "-debug-addr", "localhost:0", "-cpuprofile", "c", "-memprofile", "m", "-trace", "x"}},
		{name: "submit accepts scenario flags", args: []string{"-submit", "http://127.0.0.1:1", "-follow", "-job", "j", "-tenant", "t",
			"-random", "40", "-pm", "60", "-seeds", "3", "-csv", "out.csv", "-fer", "0.1", "-basic"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, s, err := buildScenario(tc.args...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, sp, s)
			}
		})
	}
}

func wantProtocol(p experiment.Protocol) func(*testing.T, experiment.ScenarioSpec, experiment.Scenario) {
	return func(t *testing.T, sp experiment.ScenarioSpec, s experiment.Scenario) {
		if s.Protocol != p || sp.Protocol != p.String() {
			t.Fatalf("protocol %v (spec %q), want %v", s.Protocol, sp.Protocol, p)
		}
	}
}

// TestStrategyNamesBothModes: the short CLI aliases and the spec's wire
// names are accepted by local runs and -submit alike, and map to the
// same canonical spec.
func TestStrategyNamesBothModes(t *testing.T) {
	for name, want := range map[string]experiment.Strategy{
		"partial":        experiment.StrategyPartial,
		"quarter":        experiment.StrategyQuarterWindow,
		"quarter-window": experiment.StrategyQuarterWindow,
		"nodouble":       experiment.StrategyNoDoubling,
		"no-doubling":    experiment.StrategyNoDoubling,
		"liar":           experiment.StrategyAttemptLiar,
		"attempt-liar":   experiment.StrategyAttemptLiar,
	} {
		for _, mode := range [][]string{nil, {"-submit", "http://127.0.0.1:1"}} {
			sp, s, err := buildScenario(append(mode, "-strategy", name)...)
			if err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
			if s.Strategy != want || sp.Strategy != want.String() {
				t.Fatalf("%s %v: strategy %v (spec %q), want %v", name, mode, s.Strategy, sp.Strategy, want)
			}
		}
	}
}

// runCaptured runs macsim in-process with stdout redirected to a file,
// returning what it printed.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	out, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), err
}

// TestLocalCSVMatchesSubmit pins the -submit contract: the results.csv a
// daemon job produces is byte-identical to the CSV the same flags write
// locally, scenario column included.
func TestLocalCSVMatchesSubmit(t *testing.T) {
	srv, err := serve.NewServer(serve.Options{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	dir := t.TempDir()
	for _, flags := range [][]string{
		{"-pm", "80"},
		{"-protocol", "802.11", "-pm", "80", "-two-flow"},
		{"-random", "40", "-mis", "5", "-pm", "60"},
	} {
		args := append(flags, "-duration", "1s", "-seeds", "2")
		tag := strings.Join(flags, "")
		local := filepath.Join(dir, tag+"-local.csv")
		remote := filepath.Join(dir, tag+"-submit.csv")
		if _, err := runCaptured(t, append(args, "-csv", local)...); err != nil {
			t.Fatalf("%v local: %v", flags, err)
		}
		if _, err := runCaptured(t, append(args, "-csv", remote, "-submit", ts.URL, "-follow")...); err != nil {
			t.Fatalf("%v -submit: %v", flags, err)
		}
		a, _ := os.ReadFile(local)
		b, _ := os.ReadFile(remote)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Fatalf("%v: local and -submit CSVs differ\nlocal:\n%s\nsubmit:\n%s", flags, a, b)
		}
	}
}

// TestJournalPinsSpec: a journal resumes only the scenario it was
// written for.
func TestJournalPinsSpec(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	sweep := func(pm string, seeds string) (string, error) {
		return runCaptured(t, "-duration", "1s", "-pm", pm, "-seeds", seeds, "-journal", dir)
	}
	if _, err := sweep("20", "2"); err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "spec.json")
	if _, err := os.Stat(specPath); err != nil {
		t.Fatalf("first run wrote no spec.json: %v", err)
	}

	// A different scenario over the same journal is refused, by file.
	if _, err := sweep("100", "2"); err == nil || !strings.Contains(err.Error(), specPath) {
		t.Fatalf("-pm 100 over a -pm 20 journal: err %v, want one naming %s", err, specPath)
	}

	// More seeds of the same scenario resume the finished cells.
	out, err := sweep("20", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "resumed 2 of 3 cells") {
		t.Fatalf("more seeds did not resume:\n%s", out)
	}

	// Cells whose scenario is unknown are refused.
	if err := os.Remove(specPath); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep("20", "3"); err == nil || !strings.Contains(err.Error(), "no spec.json") {
		t.Fatalf("journal without spec.json: err %v", err)
	}
}
