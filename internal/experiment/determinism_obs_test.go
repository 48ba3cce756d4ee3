package experiment

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcfguard/internal/obs"
	"dcfguard/internal/sim"
)

// Observability pass-through goldens: the obs layer's hard contract is
// that enabling every metric and every trace category changes no RNG
// draw and schedules no event, so a fully instrumented run must hash to
// the *same* golden checksums pinned by determinism_v2_test.go and
// determinism_faults_test.go. A mismatch here
// with those suites green means an instrumentation hook leaked into
// simulation behavior (an extra draw, a reordered event, a mutated
// field) — fix the hook, never the golden.

// countingSink counts records without retaining them; it is the
// anti-vacuity witness that tracing actually fired.
type countingSink struct{ n int }

func (c *countingSink) Emit(obs.Record) { c.n++ }

// fullObserve enables everything the layer has: metrics, every category,
// the crash ring, and the counting sink.
func fullObserve(sink obs.Sink) *obs.Config {
	return &obs.Config{
		Metrics:    true,
		Categories: obs.AllCategories(),
		Sinks:      []obs.Sink{sink},
	}
}

func TestObservabilityPassThrough(t *testing.T) {
	suites := []struct {
		name      string
		scenarios []Scenario
		checksum  func(Result) uint64
		goldens   map[string][3]uint64
	}{
		{"v2", goldenScenariosV2(), resultChecksum, goldenChecksumsV2},
		{"faults", faultGoldenScenarios(), faultResultChecksum, faultGoldenChecksums},
	}
	for _, suite := range suites {
		for _, s := range suite.scenarios {
			want, ok := suite.goldens[s.Name]
			if !ok {
				t.Fatalf("%s: no golden for scenario %q", suite.name, s.Name)
			}
			sink := &countingSink{}
			s.Observe = fullObserve(sink)
			for seed := uint64(1); seed <= 3; seed++ {
				r, err := Run(s, seed)
				if err != nil {
					t.Fatalf("%s seed %d: %v", s.Name, seed, err)
				}
				if got := suite.checksum(r); got != want[seed-1] {
					t.Errorf("%s seed %d: instrumented checksum %#x, golden %#x — observability is not pass-through (a hook perturbed RNG draws or event ordering)",
						s.Name, seed, got, want[seed-1])
				}
				// Anti-vacuity: a pass-through test that observed nothing
				// proves nothing.
				if r.Obs == nil {
					t.Fatalf("%s seed %d: Result.Obs nil with full Observe config", s.Name, seed)
				}
				snap := r.Obs.Reg().Snapshot()
				if len(snap.Counters) == 0 || len(snap.Gauges) == 0 || len(snap.Histograms) == 0 {
					t.Fatalf("%s seed %d: empty registry snapshot (%d counters, %d gauges, %d histograms)",
						s.Name, seed, len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
				}
				if len(r.Obs.TraceTail()) == 0 {
					t.Fatalf("%s seed %d: empty trace ring", s.Name, seed)
				}
			}
			if sink.n == 0 {
				t.Fatalf("%s: sink received no records across 3 seeds", s.Name)
			}
		}
	}
}

// bombSink panics mid-run after fuse records: a stand-in for any bug
// firing deep inside the event loop, long after armed() handed the
// runtime to RunGuarded.
type bombSink struct{ fuse int }

func (b *bombSink) Emit(obs.Record) {
	b.fuse--
	if b.fuse <= 0 {
		panic("obs bomb: injected mid-run failure")
	}
}

// TestGuardDumpCarriesTraceTail: a panic inside a traced run must
// surface the ring's last records through SeedFailure.Dump — the whole
// point of wiring the crash ring into the experiment guard.
func TestGuardDumpCarriesTraceTail(t *testing.T) {
	s := quickScenario("guarded-obs-bomb")
	s.Observe = &obs.Config{
		Categories: obs.AllCategories(),
		Sinks:      []obs.Sink{&bombSink{fuse: 300}},
	}
	_, err := RunGuarded(s, 1, 0)
	var f *SeedFailure
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want *SeedFailure", err)
	}
	if !strings.Contains(f.Panic, "obs bomb") {
		t.Fatalf("Panic = %q, want the injected message", f.Panic)
	}
	if len(f.TraceTail) == 0 {
		t.Fatal("SeedFailure.TraceTail empty: the crash ring did not reach the failure")
	}
	dump := f.Dump()
	if !strings.Contains(dump, "trace tail (last") {
		t.Fatalf("Dump() missing the trace-tail section:\n%s", dump)
	}
	// The rendered tail must contain at least one real record line.
	if !strings.Contains(dump, "node=") {
		t.Fatalf("Dump() trace tail carries no rendered records:\n%s", dump)
	}
}

// TestGuardNoTraceNoTail: with observability off, failures must not grow
// a phantom trace-tail section.
func TestGuardNoTraceNoTail(t *testing.T) {
	s := quickScenario("guarded-obs-off")
	s.Duration = 0 // setup error path
	_, err := RunGuarded(s, 1, 0)
	var f *SeedFailure
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want *SeedFailure", err)
	}
	if len(f.TraceTail) != 0 {
		t.Fatalf("TraceTail = %d records with observability disabled", len(f.TraceTail))
	}
	if strings.Contains(f.Dump(), "trace tail") {
		t.Fatal("Dump() renders a trace-tail section with no tail")
	}
}

// TestJSONLTraceDigest pins the bytes of the flight-recorder exports:
// the JSONL trace file and every Explanation.JSONL of the forensics job
// (the PM-80 ZERO-FLOW star under 20% frame errors, every category,
// seed 1, 2 s). The trace is about 4.8 MB, so the JSONL sink flushes
// its buffer many times before Close. The digests were recorded before
// the sink streamed; a mismatch means the wire format moved — fix the
// encoder, never the digest.
func TestJSONLTraceDigest(t *testing.T) {
	const (
		traceDigest   = "85afeb2c619b038ff475549b04bb48ab41f49ddbfeffba3f83ce1c400853b944"
		explainDigest = "b0103c89f8243c4932227b25a19915d19a149035c731f77b33d9e91f0c9e39a0"
	)
	s := DefaultScenario()
	s.Name = "forensics-pm80"
	s.PM = 80
	s.Duration = 2 * sim.Second
	s.Faults.FER = 0.2
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	jsonl := obs.NewJSONLSink(path)
	capture := obs.NewCaptureSink()
	s.Observe = &obs.Config{Categories: obs.AllCategories(), Sinks: []obs.Sink{jsonl, capture}}
	if _, err := Run(s, 1); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 1<<20 { // 16 fills of the sink's 64 KiB buffer
		t.Fatalf("trace is %d bytes, too small to cross many sink flushes", len(trace))
	}
	exps := obs.Explain(capture.Records(), obs.NoNode)
	h := sha256.New()
	for _, e := range exps {
		h.Write([]byte(e.JSONL()))
	}
	t.Logf("%d bytes, %d records, %d explanations", len(trace), jsonl.Len(), len(exps))
	if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != traceDigest {
		t.Errorf("JSONL trace sha256 %s, pinned %s", got, traceDigest)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != explainDigest {
		t.Errorf("Explanation.JSONL sha256 %s, pinned %s", got, explainDigest)
	}
}
