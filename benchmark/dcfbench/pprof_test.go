package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"dcfguard/internal/sim.(*Scheduler).Run":           "sim",
		"dcfguard/internal/sim.(*calendarQueue).push":      "sim",
		"dcfguard/internal/sim.(*Fanin[...]).Flush":        "sim",
		"dcfguard/internal/medium.(*Medium).fanOutV2":      "medium",
		"dcfguard/internal/core.(*IdleObserver).IdleSlots": "core",
		"dcfguard/internal/experiment.run.func1":           "experiment",
		"dcfguard/internal/atomicio.WriteFile":             "atomicio",
		"dcfguard/internal/phys.Shadowing.MeanRxPowerDBm":  "other",
		"dcfguard/internal/simx.F":                         "other",
		"dcfguard.BenchScenarioRandom400":                  "other",
		"runtime.mallocgc":                                 "runtime",
		"runtime/internal/atomic.Load":                     "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":     "runtime",
		"math.Log10":                                         "other",
		"main.replayTransmit":                                "other",
		"dcfguard/internal/rng.Mix64Pre":                     "rng",
		"dcfguard/internal/serve.(*Server).worker":           "serve",
		"dcfguard/internal/obs.appendRecordJSON":             "obs",
		"dcfguard/internal/faults.(*Injector).Drop":          "faults",
		"dcfguard/internal/mac.(*Node).resumeCountdown":      "mac",
		"dcfguard/internal/lint.(*Pass).Reportf":             "other",
		"dcfguard/internal/experiment.(*SweepProgress).Done": "experiment",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestParseTop(t *testing.T) {
	top := `File: dcfbench
Type: cpu
Duration: 5.18s, Total samples = 2770ms (53.47%)
Showing nodes accounting for 2770ms, 100% of 2770ms total
      flat  flat%   sum%        cum   cum%
    1230ms 44.40% 44.40%     1950ms 70.40%  dcfguard/internal/sim.(*calendarQueue).push
     520ms 18.77% 63.18%      520ms 18.77%  dcfguard/internal/rng.Mix64Pre (inline)
     270ms  9.75% 72.92%      270ms  9.75%  runtime.memmove
     250ms  9.03% 81.95%      250ms  9.03%  dcfguard/internal/sim.(*calendarQueue).take
     500ms 18.05%   100%      500ms 18.05%  main.spin
         0     0%   100%       10ms   0.36%  sync.(*Mutex).Unlock (inline)
`
	got, err := parseTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 1.48, "rng": 0.52, "runtime": 0.27, "other": 0.5}
	for _, l := range append([]string{"other"}, layers...) {
		if d := got[l] - want[l]; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %g s, want %g s", l, got[l], want[l])
		}
	}
	if _, err := parseTop([]byte("no table here\n")); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}

// A real CPU profile reads through `go tool pprof`, and a busy loop in
// this package lands in "other" — the benchmark's own code is no
// layer's self time.
func TestCPUByLayerReadsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	byLayer, err := cpuByLayer(path)
	if err != nil {
		t.Fatal(err)
	}
	total := byLayer["other"]
	for _, l := range layers {
		total += byLayer[l]
	}
	if total <= 0.1 {
		t.Fatalf("profile holds %.3fs of samples, want most of 0.3s", total)
	}
	if byLayer["other"] < 0.8*total {
		t.Errorf("spin loop attributed %.3fs of %.3fs to other: %v", byLayer["other"], total, byLayer)
	}
}

func TestCPUByLayerRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cpuByLayer(path); err == nil {
		t.Error("cpuByLayer accepted a file that is no profile")
	}
}
