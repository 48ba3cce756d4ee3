// Package dcfguard is a discrete-event reproduction of "Detection and
// Handling of MAC Layer Misbehavior in Wireless Networks" (Kyasanur &
// Vaidya, DSN 2003).
//
// It provides, built from scratch on the Go standard library:
//
//   - a slot-accurate IEEE 802.11 DCF simulator (CSMA/CA, RTS/CTS/DATA/
//     ACK, NAV, contention-window doubling) over a log-normal shadowing
//     channel calibrated exactly as in the paper (50% reception at
//     250 m, 50% carrier sense at 550 m, β = 2, σ = 1 dB);
//   - the paper's receiver-assigned backoff protocol: deviation
//     detection (α), the correction scheme (deviation-proportional
//     penalties) and the diagnosis scheme (window W, threshold THRESH),
//     plus the §4.4 extensions (attempt-number verification and
//     greedy-receiver detection via the public function g);
//   - the misbehavior models the paper studies (percentage-of-
//     misbehavior backoff shaving, [0, CW/4] selection, CW non-doubling,
//     attempt-number lying);
//   - every evaluation scenario from §5 (Figures 4-9) and the ablations
//     catalogued in DESIGN.md.
//
// # Quick start
//
//	s := dcfguard.DefaultScenario()
//	s.Protocol = dcfguard.ProtocolCorrect
//	s.PM = 80 // the misbehaving sender counts only 20% of each backoff
//	r, err := dcfguard.Run(s, 1)
//	// r.AvgMisbehaverKbps, r.CorrectDiagnosisPct, ...
//
// Multi-seed aggregates (the paper averages 30 runs):
//
//	agg, err := dcfguard.RunSeeds(s, dcfguard.Seeds(30))
//
// Paper figures:
//
//	table, err := dcfguard.Fig4(dcfguard.DefaultConfig())
//	fmt.Print(table.Render())
//
// Figures catalogues every table generator (Figures 4-9, the
// ablations, the extensions) with its arguments. Each generator lists
// all its (scenario, seed) runs before it starts any, then runs them
// together on one GOMAXPROCS worker pool, so a figure keeps every CPU
// busy until its last run; Config.Sweep can journal them for resume.
//
// Runs are pure functions of (Scenario, seed): identical inputs yield
// identical outputs on every platform.
package dcfguard

import (
	"time"

	"dcfguard/internal/core"
	"dcfguard/internal/experiment"
	"dcfguard/internal/faults"
	"dcfguard/internal/frame"
	"dcfguard/internal/mac"
	"dcfguard/internal/obs"
	"dcfguard/internal/phys"
	"dcfguard/internal/sim"
	"dcfguard/internal/stats"
	"dcfguard/internal/topo"
	"dcfguard/internal/trace"
)

// Re-exported simulation and scenario types. The aliases give external
// importers a stable public API over the internal packages.
type (
	// Scenario describes one simulation configuration.
	Scenario = experiment.Scenario
	// Result holds one run's metrics.
	Result = experiment.Result
	// Aggregate holds multi-seed summaries.
	Aggregate = experiment.Aggregate
	// Config scales the per-figure generators.
	Config = experiment.Config
	// Table is a rendered experiment result.
	Table = experiment.Table
	// Report combines tables into a markdown document.
	Report = experiment.Report
	// Protocol selects the MAC variant (802.11 or CORRECT).
	Protocol = experiment.Protocol
	// Strategy selects the misbehavior model.
	Strategy = experiment.Strategy
	// Figure is one figure-catalogue entry (see Figures).
	Figure = experiment.Figure
	// ChannelModel selects the medium's channel implementation.
	ChannelModel = experiment.ChannelModel

	// FaultConfig selects channel-error and node-churn fault injection
	// (see Scenario.Faults); the zero value disables everything.
	FaultConfig = faults.Config
	// GE parameterises the Gilbert–Elliott burst-loss chain.
	GE = faults.GE
	// SeedFailure describes a (scenario, seed) run that panicked, timed
	// out or failed during setup.
	SeedFailure = experiment.SeedFailure
	// SweepCell is one (scenario, seed) unit of a resumable sweep.
	SweepCell = experiment.SweepCell
	// SweepOptions configures RunSweep (journal dir, watchdog, progress)
	// and every figure generator's sweep (see Config.Sweep).
	SweepOptions = experiment.SweepOptions
	// SweepReport is RunSweep's outcome: results, failures, resume stats.
	SweepReport = experiment.SweepReport
	// SweepProgress publishes live sweep counters (see SweepOptions.Progress).
	SweepProgress = experiment.SweepProgress
	// SweepSnapshot is one read of a SweepProgress.
	SweepSnapshot = experiment.SweepSnapshot

	// ObsConfig configures the observability layer (see Scenario.Observe);
	// nil disables everything and observability is always pass-through.
	ObsConfig = obs.Config
	// ObsRegistry is the sim-time metrics registry (counters, gauges,
	// fixed-bucket histograms keyed by scope/node/name).
	ObsRegistry = obs.Registry
	// ObsSnapshot is a deterministic, sorted registry snapshot.
	ObsSnapshot = obs.Snapshot
	// ObsCategorySet selects decision-trace categories.
	ObsCategorySet = obs.CategorySet
	// ObsRecord is one structured decision-trace event.
	ObsRecord = obs.Record
	// ObsRef is a causal reference between trace records (see
	// ObsRecord.Self and ObsRecord.Parent).
	ObsRef = obs.Ref
	// ObsExplanation is one diagnosis decision with its reconstructed
	// evidence chain (see ObsExplain).
	ObsExplanation = obs.Explanation
	// ObsEvidenceStep is one window update inside an ObsExplanation,
	// with the deviation and assignment records it resolves to.
	ObsEvidenceStep = obs.EvidenceStep
	// ObsCaptureSink buffers trace records in memory for post-run
	// analysis such as ObsExplain.
	ObsCaptureSink = obs.CaptureSink
	// ObsSink receives decision-trace records.
	ObsSink = obs.Sink
	// ObsJSONL writes trace records as JSON lines (atomic on Close).
	ObsJSONL = obs.JSONLSink
	// ObsDiagnosisCSV collects the diagnosis trail as CSV.
	ObsDiagnosisCSV = obs.DiagnosisCSV
	// ObsDebugServer is the live introspection HTTP endpoint.
	ObsDebugServer = obs.DebugServer

	// NodeID identifies a node.
	NodeID = frame.NodeID
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// Topology is a set of positioned nodes and flows.
	Topology = topo.Topology
	// Flow is one traffic flow within a Topology.
	Flow = topo.Flow
	// Point is a node position in metres.
	Point = phys.Point
	// CoreParams configures detection, correction and diagnosis.
	CoreParams = core.Params
	// MACParams configures 802.11 DCF timing and contention.
	MACParams = mac.Params
	// Shadowing is the log-normal propagation model.
	Shadowing = phys.Shadowing
	// Summary is a mean/stddev/CI95 snapshot of one metric.
	Summary = stats.Summary
	// SeriesPoint is one diagnosis time-series bin.
	SeriesPoint = experiment.SeriesPoint
	// Trace is a frame-level timeline recorder (see Scenario.TraceEvents).
	Trace = trace.Recorder
)

// Protocol and strategy constants.
const (
	Protocol80211   = experiment.Protocol80211
	ProtocolCorrect = experiment.ProtocolCorrect

	StrategyPartial       = experiment.StrategyPartial
	StrategyQuarterWindow = experiment.StrategyQuarterWindow
	StrategyNoDoubling    = experiment.StrategyNoDoubling
	StrategyAttemptLiar   = experiment.StrategyAttemptLiar
)

// Channel model constants: v2 is the counter-RNG + spatial-index
// channel (the zero value and the default), v3 the propagation-delay
// channel required for sharded runs (Scenario.Shards > 1).
const (
	ChannelV2 = experiment.ChannelV2
	ChannelV3 = experiment.ChannelV3
)

// Simulated-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Decision-trace categories (combine with ObsCategorySet.Set, or parse a
// comma list with ParseObsCategories).
const (
	ObsCatMACState  = obs.CatMACState
	ObsCatBackoff   = obs.CatBackoff
	ObsCatDeviation = obs.CatDeviation
	ObsCatDiagnosis = obs.CatDiagnosis
	ObsCatChannel   = obs.CatChannel
)

// ObsNoNode marks a record field or registry key that refers to no
// particular node; passed to ObsExplain it selects every node's
// decisions.
const ObsNoNode = obs.NoNode

// NewObsRegistry returns an empty metrics registry; one registry may be
// shared across concurrent sweep cells (all updates are atomic).
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// ParseObsCategories parses a comma-separated category list ("mac,
// backoff,deviation,diagnosis,channel" or "all") into a CategorySet.
func ParseObsCategories(spec string) (ObsCategorySet, error) { return obs.ParseCategories(spec) }

// ObsAllCategories returns the set containing every trace category.
func ObsAllCategories() ObsCategorySet { return obs.AllCategories() }

// NewObsJSONL returns a trace sink writing JSON lines to path on Close.
func NewObsJSONL(path string) *ObsJSONL { return obs.NewJSONLSink(path) }

// NewObsDiagnosisCSV returns a sink collecting diagnosis-trail records
// as CSV rows (written to path atomically on Close).
func NewObsDiagnosisCSV(path string) *ObsDiagnosisCSV { return obs.NewDiagnosisCSV(path) }

// NewObsDebugServer returns an unstarted live-introspection HTTP server
// (pprof, /debug/metrics, /debug/sweep).
func NewObsDebugServer() *ObsDebugServer { return obs.NewDebugServer() }

// NewObsCaptureSink returns a sink that buffers every record in memory,
// in emission order, for post-run analysis.
func NewObsCaptureSink() *ObsCaptureSink { return obs.NewCaptureSink() }

// ObsExplain walks the causal references in a trace capture and returns
// the evidence chain behind every diagnosis decision about node
// (ObsNoNode: every node), in emission order.
func ObsExplain(recs []ObsRecord, node NodeID) []ObsExplanation { return obs.Explain(recs, node) }

// DefaultScenario returns the paper's base configuration: the Figure-3
// ZERO-FLOW star with 8 senders, node 3 misbehaving, 50 s runs.
func DefaultScenario() Scenario { return experiment.DefaultScenario() }

// DefaultConfig returns the paper's full evaluation settings (50 s runs,
// 30 seeds per data point).
func DefaultConfig() Config { return experiment.DefaultConfig() }

// QuickConfig returns a reduced configuration for smoke runs and benches.
func QuickConfig() Config { return experiment.QuickConfig() }

// Run executes a scenario once; it is a pure function of (s, seed).
func Run(s Scenario, seed uint64) (Result, error) { return experiment.Run(s, seed) }

// RunSeeds executes a scenario once per seed on the figure
// generators' worker pool (GOMAXPROCS workers) and aggregates the
// results in seed order. A failed run comes back as
// "experiment: <name> seed <n>: <cause>" for the first failing seed.
func RunSeeds(s Scenario, seeds []uint64) (Aggregate, error) {
	return experiment.RunSeeds(s, seeds)
}

// Seeds returns the fixed seed set 1..n, as the paper uses for every
// data point.
func Seeds(n int) []uint64 { return experiment.Seeds(n) }

// RunAll executes the scenario once per seed on the same pool as
// RunSeeds and returns the raw per-run results, in seed order, for
// external analysis.
func RunAll(s Scenario, seeds []uint64) ([]Result, error) { return experiment.RunAll(s, seeds) }

// ResultsCSV renders raw per-run results as CSV.
func ResultsCSV(results []Result) string { return experiment.ResultsCSV(results) }

// PerSenderCSV renders the per-flow throughput breakdown as CSV.
func PerSenderCSV(results []Result) string { return experiment.PerSenderCSV(results) }

// StarTopo builds the Figure-3 star topology (optionally with the
// TWO-FLOW interferers) with the given misbehaving sender IDs.
func StarTopo(nSenders int, twoFlow bool, misbehaving ...int) func(uint64) *Topology {
	return experiment.StarTopo(nSenders, twoFlow, misbehaving...)
}

// RandomTopo builds Figure-9 random topologies (regenerated per seed).
func RandomTopo(nodes, nMis int) func(uint64) *Topology {
	return experiment.RandomTopo(nodes, nMis)
}

// ScaledRandomTopo builds large random topologies at the Figure-9 node
// density (the arena widens with the node count).
func ScaledRandomTopo(nodes, nMis int) func(uint64) *Topology {
	return experiment.ScaledRandomTopo(nodes, nMis)
}

// Fig4 reproduces diagnosis accuracy vs PM (Figure 4).
func Fig4(cfg Config) (*Table, error) { return experiment.Fig4(cfg) }

// Figures is the figure catalogue: every table generator of the
// evaluation, with the arguments `figures -fig all` runs it at.
var Figures = experiment.Figures

// GEForMeanFER returns the classic Gilbert burst chain whose long-run
// loss rate is fer, with Bad→Good recovery probability r (mean burst
// length 1/r frames).
func GEForMeanFER(fer, r float64) GE { return faults.GEForMeanFER(fer, r) }

// RunGuarded executes a scenario like Run but recovers panics and, when
// timeout > 0, cancels runs that exceed the wall-time budget; failures
// come back as a *SeedFailure with a diagnostic dump.
func RunGuarded(s Scenario, seed uint64, timeout time.Duration) (Result, error) {
	return experiment.RunGuarded(s, seed, timeout)
}

// RunSweep executes (scenario, seed) cells across a worker pool with
// per-cell panic/timeout isolation and, when a journal directory is
// given, crash-safe checkpoint/resume: rerunning an interrupted sweep
// loads finished cells from the journal and executes only the rest.
func RunSweep(cells []SweepCell, opts SweepOptions) (SweepReport, error) {
	return experiment.RunSweep(cells, opts)
}

// ExtFaultTolerance measures the false-diagnosis rate of correct senders
// as the frame-error rate sweeps 0-30% (i.i.d. and bursty losses); with
// cfg.Sweep.JournalDir set, the sweep resumes from its journal.
func ExtFaultTolerance(cfg Config) (*Table, error) {
	return experiment.ExtFaultTolerance(cfg)
}
