package experiment

import (
	"strings"
	"testing"

	"dcfguard/internal/phys"
	"dcfguard/internal/sim"
	"dcfguard/internal/stats"
)

// quick returns a short scenario for test runs.
func quick() Scenario {
	s := DefaultScenario()
	s.Duration = 5 * sim.Second
	return s
}

// twoRay returns the two-ray ground propagation variant.
func twoRay() phys.Shadowing {
	return phys.DefaultTwoRay()
}

func TestRunHonestBaseline(t *testing.T) {
	s := quick()
	s.Protocol = Protocol80211
	s.Topo = StarTopo(8, false)
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 8 saturated senders on 2 Mbps: total goodput in the ~1.1-1.3 Mbps
	// band given the exchange overheads.
	if r.TotalKbps < 1000 || r.TotalKbps > 1400 {
		t.Fatalf("total = %.1f Kbps, want ≈1200", r.TotalKbps)
	}
	if r.Fairness < 0.95 {
		t.Fatalf("fairness = %.3f for identical honest senders", r.Fairness)
	}
	if r.CorrectDiagnosisPct != 0 || r.MisdiagnosisPct != 0 {
		t.Fatal("802.11 run produced diagnosis metrics without a monitor")
	}
	if len(r.ThroughputBySender) != 8 {
		t.Fatalf("throughput map has %d senders", len(r.ThroughputBySender))
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	s := quick()
	s.PM = 60
	a, err := Run(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalKbps != b.TotalKbps || a.CorrectDiagnosisPct != b.CorrectDiagnosisPct ||
		a.EventsFired != b.EventsFired {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

func TestRunSeedsVary(t *testing.T) {
	s := quick()
	s.Protocol = Protocol80211
	a, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalKbps == b.TotalKbps && a.EventsFired == b.EventsFired {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestRun80211MisbehaverGains(t *testing.T) {
	s := quick()
	s.Protocol = Protocol80211
	s.PM = 80
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgMisbehaverKbps < 1.5*r.AvgHonestKbps {
		t.Fatalf("802.11 misbehaver MSB=%.1f vs AVG=%.1f: expected a large unfair gain",
			r.AvgMisbehaverKbps, r.AvgHonestKbps)
	}
}

func TestRunCorrectContainsMisbehaver(t *testing.T) {
	s := quick()
	s.Protocol = ProtocolCorrect
	s.PM = 80
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgMisbehaverKbps > 1.5*r.AvgHonestKbps {
		t.Fatalf("CORRECT misbehaver MSB=%.1f vs AVG=%.1f: containment failed",
			r.AvgMisbehaverKbps, r.AvgHonestKbps)
	}
	if r.CorrectDiagnosisPct < 80 {
		t.Fatalf("correct diagnosis %.1f%% at PM=80, want high", r.CorrectDiagnosisPct)
	}
	if r.MisdiagnosisPct > 5 {
		t.Fatalf("misdiagnosis %.1f%% in zero-flow, want ≈0", r.MisdiagnosisPct)
	}
}

func TestRunTwoFlowProducesMisdiagnosisPressure(t *testing.T) {
	s := quick()
	s.Topo = StarTopo(8, true, 3)
	s.Protocol = ProtocolCorrect
	s.PM = 0
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The interferer flows make some honest packets look deviant; the
	// paper's trade-off requires a nonzero misdiagnosis rate here.
	if r.MisdiagnosisPct == 0 {
		t.Fatal("two-flow scenario produced no misdiagnosis; interferers ineffective")
	}
}

func TestRunSeriesProduced(t *testing.T) {
	s := quick()
	s.PM = 80
	s.BinSize = sim.Second
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) < 4 {
		t.Fatalf("series has %d bins for a 5 s run", len(r.Series))
	}
	late := r.Series[len(r.Series)-1]
	if late.CorrectPct < 80 {
		t.Fatalf("late-bin correct%% = %.1f at PM=80", late.CorrectPct)
	}
}

func TestRunTrace(t *testing.T) {
	s := quick()
	s.Duration = 200 * sim.Millisecond
	s.TraceEvents = 50
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil || r.Trace.Len() == 0 {
		t.Fatal("trace scenario produced no trace")
	}
	if r.Trace.Len() > 50 {
		t.Fatalf("trace holds %d events, cap was 50", r.Trace.Len())
	}
	sum := r.Trace.Summarize()
	if sum.RTS == 0 || sum.CTS == 0 || sum.Data == 0 || sum.Ack == 0 {
		t.Fatalf("trace summary missing frame types: %+v", sum)
	}
	if sum.Delivered == 0 {
		t.Fatalf("trace recorded no deliveries: %+v", sum)
	}
}

// TestRunRejectsMoreShardsThanNodes: run bounds the shard count by the
// topology's node count before it allocates a scheduler; one shard per
// node is the largest count that runs.
func TestRunRejectsMoreShardsThanNodes(t *testing.T) {
	s := DefaultScenario()
	s.Channel = ChannelV3
	s.Duration = 10 * sim.Millisecond
	s.Shards = 10
	if _, err := Run(s, 1); err == nil || !strings.Contains(err.Error(), "10 shards exceed the topology's 9 nodes") {
		t.Fatalf("10 shards on a 9-node star: err %v", err)
	}
	s.Shards = 9
	if _, err := Run(s, 1); err != nil {
		t.Fatalf("9 shards on a 9-node star: %v", err)
	}
}

func TestRunNoTraceByDefault(t *testing.T) {
	s := quick()
	s.Duration = 100 * sim.Millisecond
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace != nil {
		t.Fatal("trace recorded without TraceEvents")
	}
}

func TestRunDelayMetrics(t *testing.T) {
	s := quick()
	s.Protocol = Protocol80211
	s.PM = 80
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgHonestDelayMs <= 0 || r.AvgMisbehaverDelayMs <= 0 {
		t.Fatalf("delays = (%v, %v), want positive", r.AvgHonestDelayMs, r.AvgMisbehaverDelayMs)
	}
	// Lower delay is the misbehaver's other prize under plain 802.11.
	if r.AvgMisbehaverDelayMs >= r.AvgHonestDelayMs {
		t.Fatalf("802.11 misbehaver delay %v not below honest %v",
			r.AvgMisbehaverDelayMs, r.AvgHonestDelayMs)
	}
}

func TestRunCorrectEqualisesDelay(t *testing.T) {
	s := quick()
	s.Protocol = ProtocolCorrect
	s.PM = 80
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.AvgMisbehaverDelayMs / r.AvgHonestDelayMs
	if ratio < 0.6 || ratio > 1.8 {
		t.Fatalf("CORRECT delay ratio = %.2f (MSB %v, AVG %v), want near 1",
			ratio, r.AvgMisbehaverDelayMs, r.AvgHonestDelayMs)
	}
}

func TestRunTwoRayPropagation(t *testing.T) {
	s := quick()
	s.Shadowing = twoRay()
	s.Protocol = Protocol80211
	r, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalKbps < 900 {
		t.Fatalf("two-ray star carried only %.1f Kbps", r.TotalKbps)
	}
}

func TestRunValidation(t *testing.T) {
	s := quick()
	s.Duration = 0
	if _, err := Run(s, 1); err == nil {
		t.Fatal("zero duration accepted")
	}
	s = quick()
	s.PM = 150
	if _, err := Run(s, 1); err == nil {
		t.Fatal("PM=150 accepted")
	}
	s = quick()
	s.Topo = nil
	if _, err := Run(s, 1); err == nil {
		t.Fatal("nil topology accepted")
	}
	s = quick()
	s.Protocol = 0
	if _, err := Run(s, 1); err == nil {
		t.Fatal("invalid protocol accepted")
	}
	s = quick()
	s.Strategy = 0
	if _, err := Run(s, 1); err == nil {
		t.Fatal("invalid strategy accepted")
	}
}

func TestRunRandomTopology(t *testing.T) {
	s := quick()
	s.Topo = RandomTopo(20, 3)
	s.PM = 80
	r, err := Run(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalKbps == 0 {
		t.Fatal("random topology carried no traffic")
	}
	if len(r.ThroughputBySender) != 20 {
		t.Fatalf("throughput map has %d of 20 flows", len(r.ThroughputBySender))
	}
}

func TestRunStrategies(t *testing.T) {
	for _, strat := range []Strategy{StrategyQuarterWindow, StrategyNoDoubling, StrategyAttemptLiar} {
		s := quick()
		s.Protocol = Protocol80211
		s.Strategy = strat
		s.PM = 50
		if _, err := Run(s, 1); err != nil {
			t.Fatalf("strategy %v failed: %v", strat, err)
		}
	}
}

func TestRunSeedsAggregation(t *testing.T) {
	s := quick()
	s.Protocol = Protocol80211
	agg, err := RunSeeds(s, Seeds(4))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 4 {
		t.Fatalf("runs = %d", agg.Runs)
	}
	if agg.TotalKbps.N != 4 || agg.TotalKbps.Mean < 1000 {
		t.Fatalf("total summary = %+v", agg.TotalKbps)
	}
	if agg.TotalKbps.CI95 <= 0 {
		t.Fatal("CI95 not computed across seeds")
	}
}

func TestRunSeedsMatchesSequentialRuns(t *testing.T) {
	s := quick()
	s.PM = 40
	agg, err := RunSeeds(s, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := Run(s, 1)
	r2, _ := Run(s, 2)
	want := (r1.TotalKbps + r2.TotalKbps) / 2
	if diff := agg.TotalKbps.Mean - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("parallel aggregate %.3f != sequential mean %.3f", agg.TotalKbps.Mean, want)
	}
}

func TestAggregateSeriesPooling(t *testing.T) {
	// The pooled series must weight per-run percentages by packet
	// counts, not average them naively.
	results := []Result{
		{Series: []stats.SeriesPoint{{Start: 0, CorrectPct: 100, Packets: 30}}},
		{Series: []stats.SeriesPoint{{Start: 0, CorrectPct: 0, Packets: 10}}},
	}
	agg := aggregate("x", results)
	if len(agg.Series) != 1 {
		t.Fatalf("series bins = %d", len(agg.Series))
	}
	// 30 of 40 packets correct → 75%.
	if got := agg.Series[0].CorrectPct; got != 75 {
		t.Fatalf("pooled pct = %v, want 75", got)
	}
	if agg.Series[0].Packets != 40 {
		t.Fatalf("pooled packets = %d, want 40", agg.Series[0].Packets)
	}
}

func TestAggregateUnevenSeriesLengths(t *testing.T) {
	results := []Result{
		{Series: []stats.SeriesPoint{{Start: 0, CorrectPct: 50, Packets: 10}}},
		{Series: []stats.SeriesPoint{
			{Start: 0, CorrectPct: 50, Packets: 10},
			{Start: sim.Second, CorrectPct: 100, Packets: 4},
		}},
	}
	agg := aggregate("x", results)
	if len(agg.Series) != 2 {
		t.Fatalf("series bins = %d, want 2 (longest run wins)", len(agg.Series))
	}
	if agg.Series[1].CorrectPct != 100 || agg.Series[1].Packets != 4 {
		t.Fatalf("tail bin = %+v", agg.Series[1])
	}
}

func TestRunSeedsEmpty(t *testing.T) {
	if _, err := RunSeeds(quick(), nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

func TestSeedsHelper(t *testing.T) {
	s := Seeds(3)
	if len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Fatalf("Seeds(3) = %v", s)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	out := tb.Render()
	for _, want := range []string{"T\n", "| a  ", "| bb |", "| 333 |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "b"}}
	tb.AddRow("1,5", `say "hi"`)
	csv := tb.CSV()
	want := "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestTableRowArityPanics(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("bad arity did not panic")
		}
	}()
	tb.AddRow("only one")
}

func TestProtocolStrategyStrings(t *testing.T) {
	if Protocol80211.String() != "802.11" || ProtocolCorrect.String() != "CORRECT" {
		t.Fatal("protocol names wrong")
	}
	if StrategyPartial.String() != "partial" || StrategyAttemptLiar.String() != "attempt-liar" {
		t.Fatal("strategy names wrong")
	}
	if Protocol(9).String() == "" || Strategy(9).String() == "" {
		t.Fatal("unknown values must still render")
	}
}
