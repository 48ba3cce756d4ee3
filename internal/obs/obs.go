// Package obs is the simulator's unified observability layer: a
// sim-time-aware metrics registry, a structured decision-trace bus, and
// a live introspection endpoint for long runs.
//
// Design contract — pass-through only. Nothing in this package draws
// from an RNG, schedules a simulation event, or feeds a value back into
// simulation state: a run is bit-identical whether instrumentation is
// fully enabled or absent (pinned by TestObsDeterminismGolden in
// internal/experiment). Timestamps on records and gauges are *simulated*
// time, never the host clock.
//
// Hot-path contract — disabled means free. Every handle (Counter,
// Gauge, Histogram) and the Bus itself are nil-safe: a nil receiver
// compiles down to a nil-check no-op, so uninstrumented runs pay one
// predictable branch per hook point and allocate nothing. Handles are
// resolved by string name once, at attach time (an Instrument method or
// a constructor); the detlint `obshot` analyzer flags by-name lookups
// anywhere else.
//
// Trace records are grouped into categories (MAC state transitions,
// backoff assignment/observation, deviation/penalty computation,
// diagnosis window updates, channel events); sinks subscribe per
// category. Four sinks ship with the package: a bounded RingSink whose
// tail ends up in *experiment.SeedFailure crash dumps, a JSONLSink
// streamed to a temporary file and committed atomically at Close, a
// DiagnosisCSV sink producing the diagnosis-trail export, and a
// CaptureSink holding every record for Explain. The record schemas are
// catalogued in DESIGN.md §9.
package obs

import (
	"fmt"
	"strings"

	"dcfguard/internal/frame"
	"dcfguard/internal/sim"
)

// NoNode marks a Record field (or a registry key) that does not refer to
// a particular node: system-wide channel counters, run-level gauges.
const NoNode frame.NodeID = -1

// Category identifies one class of trace records.
type Category uint8

const (
	// CatMACState traces sender-side DCF state-machine transitions.
	CatMACState Category = iota
	// CatBackoff traces backoff assignment and observation: the
	// monitor's per-exchange assignment decisions, the sender's receipt
	// of assignments, and the observation-window marks.
	CatBackoff
	// CatDeviation traces equation-(1) deviation detections and the
	// correction penalties they trigger.
	CatDeviation
	// CatDiagnosis traces diagnosis-window updates: every per-packet
	// classification with its B_exp − B_act difference, the window sum,
	// the threshold in force, and the verdict — plus attempt-verification
	// proofs. The DiagnosisCSV sink renders exactly this category.
	CatDiagnosis
	// CatChannel traces medium events: transmissions, per-observer
	// carrier busy/idle transitions, deliveries, collisions, half-duplex
	// self-blocks, and fault-injection drops.
	CatChannel

	numCategories
)

// String returns the category name as used by macsim -trace-events.
func (c Category) String() string {
	switch c {
	case CatMACState:
		return "mac"
	case CatBackoff:
		return "backoff"
	case CatDeviation:
		return "deviation"
	case CatDiagnosis:
		return "diagnosis"
	case CatChannel:
		return "channel"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// CategorySet is a bitmask of categories.
type CategorySet uint8

// Set returns the set with c included.
func (s CategorySet) Set(c Category) CategorySet { return s | 1<<c }

// Has reports whether c is in the set.
func (s CategorySet) Has(c Category) bool { return s&(1<<c) != 0 }

// Empty reports whether no category is selected.
func (s CategorySet) Empty() bool { return s == 0 }

// AllCategories returns the set containing every category.
func AllCategories() CategorySet { return 1<<numCategories - 1 }

// String renders the set as the comma-separated list ParseCategories
// accepts.
func (s CategorySet) String() string {
	if s == AllCategories() {
		return "all"
	}
	var names []string
	for c := Category(0); c < numCategories; c++ {
		if s.Has(c) {
			names = append(names, c.String())
		}
	}
	return strings.Join(names, ",")
}

// ParseCategories parses a comma-separated category list ("mac,backoff",
// "diagnosis", ...); "all" selects every category.
func ParseCategories(spec string) (CategorySet, error) {
	var s CategorySet
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "all" {
			return AllCategories(), nil
		}
		found := false
		for c := Category(0); c < numCategories; c++ {
			if c.String() == name {
				s = s.Set(c)
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("obs: unknown trace category %q (have mac, backoff, deviation, diagnosis, channel, all)", name)
		}
	}
	return s, nil
}

// Ref is a causal reference to a trace record: the (when, key, seq)
// identity of the decision that produced it. Key is content-derived at
// the emission site (node, peer and record kind — see core/monitor.go),
// never a shard or scheduler artifact, so references are identical
// across serial and sharded runs of the same seed. The zero Ref means
// "no reference".
type Ref struct {
	When sim.Time
	Key  uint64
	Seq  uint32
}

// IsZero reports whether the reference is absent.
func (f Ref) IsZero() bool { return f == Ref{} }

// String renders the reference compactly (when:key:seq).
func (f Ref) String() string {
	return fmt.Sprintf("%d:%d:%d", int64(f.When), f.Key, f.Seq)
}

// Record is one structured trace event. A single flat shape serves every
// category so emission never allocates; the per-category meaning of
// Event, Aux, Seq and A/B/C/D/E is catalogued in DESIGN.md §9 and §14.
// Event and Aux are always static strings at emission sites (no
// formatting on the hot path).
type Record struct {
	Time sim.Time
	// Node is the node the decision happened at (the observer/monitor/
	// transmitter); Peer the counterpart (sender, addressee), NoNode
	// when there is none.
	Node frame.NodeID
	Peer frame.NodeID
	// Event names the event within its category; Aux is an optional
	// secondary label (e.g. the previous MAC state).
	Event string
	Aux   string
	// Seq is the frame sequence number involved, 0 when not applicable.
	// Cat shares its word: the record is copied by value into every
	// sink, so its size is paid per record per sink.
	Seq uint32
	Cat Category
	// A, B, C, D, E are event-specific numeric payloads.
	A, B, C, D, E float64
	// Self is this record's causal identity; Parent references the
	// record whose decision produced this one. Both are zero for
	// records outside the flight-recorder lineage (DESIGN.md §14).
	Self   Ref
	Parent Ref
}

// String renders the record compactly for crash dumps and logs.
func (r Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%-12v [%s] node=%d", r.Time, r.Cat, r.Node)
	if r.Peer != NoNode {
		fmt.Fprintf(&b, " peer=%d", r.Peer)
	}
	b.WriteString(" " + r.Event)
	if r.Aux != "" {
		b.WriteString("<-" + r.Aux)
	}
	if r.Seq != 0 {
		fmt.Fprintf(&b, " seq=%d", r.Seq)
	}
	fmt.Fprintf(&b, " a=%g b=%g c=%g", r.A, r.B, r.C)
	if r.D != 0 || r.E != 0 { //detlint:allow floateq -- display elision, exact zero is the unset default
		fmt.Fprintf(&b, " d=%g e=%g", r.D, r.E)
	}
	if !r.Parent.IsZero() {
		b.WriteString(" parent=" + r.Parent.String())
	}
	return b.String()
}

// Sink receives trace records. Emit is called synchronously from the
// simulation goroutine, in event order; implementations must not block.
// A sink subscribed to several categories can filter on Record.Cat.
type Sink interface {
	Emit(r Record)
}

// Bus routes records to per-category subscriber lists. The zero value
// has no subscribers; a nil *Bus is valid and permanently disabled —
// instrumented code guards every emission with Enabled, which is the
// whole hot-path cost when tracing is off.
type Bus struct {
	subs [numCategories][]Sink
}

// Subscribe attaches sink to every category in cats.
func (b *Bus) Subscribe(cats CategorySet, sink Sink) {
	for c := Category(0); c < numCategories; c++ {
		if cats.Has(c) {
			b.subs[c] = append(b.subs[c], sink)
		}
	}
}

// Enabled reports whether any sink subscribes to c. It is the hot-path
// guard: build the Record only inside an Enabled branch.
func (b *Bus) Enabled(c Category) bool {
	return b != nil && len(b.subs[c]) > 0
}

// Emit delivers r to the subscribers of its category, in subscription
// order.
func (b *Bus) Emit(r Record) {
	if b == nil {
		return
	}
	for _, s := range b.subs[r.Cat] {
		s.Emit(r)
	}
}

// Config selects what a run observes. The zero value (and a nil *Config)
// disables everything.
type Config struct {
	// Metrics enables the metrics registry.
	Metrics bool
	// Registry, when non-nil, is used instead of a freshly built one
	// (implies Metrics). The live debug endpoint uses this to watch a
	// registry it already serves; a sweep can share one registry across
	// cells — counters are atomic, so concurrent cells simply aggregate.
	Registry *Registry
	// Categories selects the trace categories to emit.
	Categories CategorySet
	// Sinks receive records of every enabled category (filter on
	// Record.Cat inside the sink for finer selection). Sinks are shared,
	// not per-run: do not reuse a Config with stateful sinks across
	// concurrent runs.
	Sinks []Sink
	// RingSize bounds the crash-forensics ring buffer; 0 means
	// DefaultRingSize when any category is enabled.
	RingSize int
}

// DefaultRingSize is the trace-tail length carried by crash reports.
const DefaultRingSize = 256

// Validate reports whether the configuration is usable.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.RingSize < 0 {
		return fmt.Errorf("obs: negative ring size %d", c.RingSize)
	}
	return nil
}

// Runtime is one run's assembled observability state: the registry (nil
// when metrics are disabled), the trace bus (nil when no category is
// subscribed), and the crash ring (nil when the Config enables no
// category). All accessors are nil-safe, so a nil *Runtime is
// "observability off".
type Runtime struct {
	registry *Registry
	bus      *Bus
	ring     *RingSink
	// cats is the subscribed category set, kept so sharded runs can
	// build per-shard front buses with identical subscriptions
	// (shard.go).
	cats CategorySet
}

// Build assembles a Runtime from the configuration. A nil config, or one
// enabling nothing, returns nil. Build is safe to call concurrently on a
// shared Config (it only reads it), which is how sweep cells share one
// registry while keeping per-run rings.
func (c *Config) Build() *Runtime {
	if c == nil {
		return nil
	}
	rt := &Runtime{registry: c.Registry}
	if rt.registry == nil && c.Metrics {
		rt.registry = NewRegistry()
	}
	if !c.Categories.Empty() {
		rt.bus = &Bus{}
		rt.cats = c.Categories
		size := c.RingSize
		if size == 0 {
			size = DefaultRingSize
		}
		rt.ring = NewRingSink(size)
		rt.bus.Subscribe(c.Categories, rt.ring)
		for _, s := range c.Sinks {
			rt.bus.Subscribe(c.Categories, s)
		}
	}
	if rt.registry == nil && rt.bus == nil {
		return nil
	}
	return rt
}

// Subscribe attaches sink to the categories cats of the run's trace
// bus and returns the runtime, building a bus-only one when rt is nil.
// The crash ring and Config.Sinks do not see the added categories, and
// per-shard front buses built after it mirror them (NewShardFanin).
func (rt *Runtime) Subscribe(cats CategorySet, sink Sink) *Runtime {
	if rt == nil {
		rt = &Runtime{}
	}
	if rt.bus == nil {
		rt.bus = &Bus{}
	}
	rt.cats |= cats
	rt.bus.Subscribe(cats, sink)
	return rt
}

// Reg returns the metrics registry, nil when disabled.
func (rt *Runtime) Reg() *Registry {
	if rt == nil {
		return nil
	}
	return rt.registry
}

// TraceBus returns the trace bus, nil when tracing is disabled.
func (rt *Runtime) TraceBus() *Bus {
	if rt == nil {
		return nil
	}
	return rt.bus
}

// TraceTail returns the last ring-buffered trace records, oldest first
// (nil when tracing is disabled): the payload of crash-report dumps.
func (rt *Runtime) TraceTail() []Record {
	if rt == nil || rt.ring == nil {
		return nil
	}
	return rt.ring.Records()
}
