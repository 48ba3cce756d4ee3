package experiment

import (
	"testing"

	"dcfguard/internal/faults"
	"dcfguard/internal/obs"
	"dcfguard/internal/sim"
)

// Sharded fault/trace/obs goldens — the correctness pin for the port of
// the gated layers onto the sharded kernel (DESIGN.md §12). The claim
// under test is the strongest the repo makes: with fault injection,
// frame tracing, and full decision tracing all enabled, a sharded run
// is bit-identical to the serial run for ANY shard count — same result
// checksum, same fault drops and restarts, same trace record stream in
// the same order, same frame timeline. `make shards` runs this file
// under -race, which also exercises the fan-in's single-owner buffers.
//
// The pinned checksums were captured from the serial (Shards = 1) runs
// when the port landed and must never be updated to make the test pass:
// a mismatch means a change perturbed the injector's counter-RNG
// discipline, the churn schedule, or the keyed event order.

// shardFaultScenarios are the v3 siblings of faultGoldenScenarios, on
// the 120-node spatial topology sharding exists for: a fixed-FER run, a
// Gilbert burst-loss run, and a churn run that also drops frames (so
// one scenario exercises both fault paths at once).
func shardFaultScenarios() []Scenario {
	base := func(name string) Scenario {
		s := DefaultScenario()
		s.Name = name
		s.Protocol = ProtocolCorrect
		s.Topo = ScaledRandomTopo(120, 15)
		s.PM = 80
		s.Duration = 250 * sim.Millisecond
		s.Channel = ChannelV3
		return s
	}

	fer := base("shard-faults-fer20-v3")
	fer.Faults.FER = 0.20

	burst := base("shard-faults-burst20-v3")
	ge := faults.GEForMeanFER(0.20, 0.25)
	burst.Faults.Burst = &ge

	churn := base("shard-faults-churn-v3")
	churn.Faults.FER = 0.10
	churn.Faults.ChurnInterval = 60 * sim.Millisecond
	churn.Faults.ChurnDowntime = 20 * sim.Millisecond

	return []Scenario{fer, burst, churn}
}

var shardFaultGoldenChecksums = map[string][2]uint64{
	"shard-faults-fer20-v3":   {0xbeb098afa93f1c50, 0x939ccdf2e0be32b8},
	"shard-faults-burst20-v3": {0x3e2eb8ada9cc9bf7, 0x3f80b048d2480e4a},
	"shard-faults-churn-v3":   {0xa5698732e7138cf5, 0x39ebedafe64ef12d},
}

// TestShardFaultGoldenV3 pins fault-injected runs — serial and sharded
// alike — to one golden per (scenario, seed): partitioning must not
// move a fault decision, a churn instant, or any downstream metric.
func TestShardFaultGoldenV3(t *testing.T) {
	for _, s := range shardFaultScenarios() {
		want, ok := shardFaultGoldenChecksums[s.Name]
		if !ok {
			t.Fatalf("no golden for scenario %q", s.Name)
		}
		for _, shards := range []int{1, 2, 4, 7} {
			s.Shards = shards
			for seed := uint64(1); seed <= 2; seed++ {
				r, err := Run(s, seed)
				if err != nil {
					t.Fatalf("%s shards=%d seed %d: %v", s.Name, shards, seed, err)
				}
				if got := faultResultChecksum(r); got != want[seed-1] {
					t.Errorf("%s shards=%d seed %d: checksum %#x, golden %#x — sharding (or a change) perturbed fault injection",
						s.Name, shards, seed, got, want[seed-1])
				}
			}
		}
	}
}

// TestShardFaultsActuallyInject guards the sharded goldens against
// vacuity, at a shard count that actually partitions the links.
func TestShardFaultsActuallyInject(t *testing.T) {
	for _, s := range shardFaultScenarios() {
		s.Shards = 4
		r, err := Run(s, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if s.Faults.ErrorsEnabled() && r.FaultDrops == 0 {
			t.Errorf("%s: error model enabled but zero frames dropped", s.Name)
		}
		if s.Faults.ChurnEnabled() && r.Restarts == 0 {
			t.Errorf("%s: churn enabled but zero restarts completed", s.Name)
		}
	}
}

// recordingSink retains every record, in emission order: the witness
// for stream-exact equality between serial and sharded tracing.
type recordingSink struct{ recs []obs.Record }

func (c *recordingSink) Emit(r obs.Record) { c.recs = append(c.recs, r) }

// TestShardTraceStreamInvariance is the strongest sharding claim: with
// the FULL observability stack on — every trace category, metrics, the
// crash ring, frame tracing, and fault injection — a sharded run must
// reproduce the serial run's record stream record-for-record IN ORDER,
// the same crash-ring tail, the same frame timeline text, and the same
// result checksum, for shard counts {2, 4, 7}.
func TestShardTraceStreamInvariance(t *testing.T) {
	s := DefaultScenario()
	s.Name = "shard-trace-stream"
	s.Protocol = ProtocolCorrect
	s.Topo = ScaledRandomTopo(120, 15)
	s.PM = 80
	s.Duration = 150 * sim.Millisecond
	s.Channel = ChannelV3
	s.Faults.FER = 0.10
	s.TraceEvents = 200000

	run := func(shards int) (Result, *recordingSink) {
		s.Shards = shards
		sink := &recordingSink{}
		s.Observe = fullObserve(sink)
		r, err := Run(s, 1)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return r, sink
	}

	ref, refSink := run(1)
	refSum := faultResultChecksum(ref)
	if len(refSink.recs) == 0 {
		t.Fatal("serial run emitted no trace records")
	}
	if ref.Trace.Len() == 0 {
		t.Fatal("serial run recorded no frame timeline")
	}
	refTail := ref.Obs.TraceTail()
	refText := ref.Trace.Text()

	for _, shards := range []int{2, 4, 7} {
		r, sink := run(shards)
		if got := faultResultChecksum(r); got != refSum {
			t.Errorf("shards=%d: checksum %#x, serial %#x", shards, got, refSum)
		}
		if len(sink.recs) != len(refSink.recs) {
			t.Errorf("shards=%d: %d trace records, serial emitted %d",
				shards, len(sink.recs), len(refSink.recs))
		} else {
			for i := range sink.recs {
				if sink.recs[i] != refSink.recs[i] {
					t.Errorf("shards=%d: record %d = %v, serial %v — merged order diverged",
						shards, i, sink.recs[i], refSink.recs[i])
					break
				}
			}
		}
		tail := r.Obs.TraceTail()
		if len(tail) != len(refTail) {
			t.Errorf("shards=%d: trace tail %d records, serial %d", shards, len(tail), len(refTail))
		} else {
			for i := range tail {
				if tail[i] != refTail[i] {
					t.Errorf("shards=%d: tail record %d diverged from serial", shards, i)
					break
				}
			}
		}
		if text := r.Trace.Text(); text != refText {
			t.Errorf("shards=%d: frame timeline diverged from serial", shards)
		}
	}
}

// TestShardTimelineCapMatchesSerial runs a frame timeline capped well
// below the run's transmissions, serially and on the sharded replay
// path: the delivery marks that arrive after the cap (and the ones the
// replay delivers at each barrier) must leave a timeline byte-identical
// to serial, with both delivered and lost outcomes recorded. v3
// deliveries fire a propagation delay after the on-air end and must
// still find their transmission.
func TestShardTimelineCapMatchesSerial(t *testing.T) {
	s := DefaultScenario()
	s.Name = "shard-timeline-cap"
	s.Topo = ScaledRandomTopo(120, 15)
	s.Duration = 150 * sim.Millisecond
	s.Channel = ChannelV3
	s.TraceEvents = 400
	var ref string
	for _, shards := range []int{1, 2, 4} {
		s.Shards = shards
		r, err := Run(s, 2)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		sum := r.Trace.Summarize()
		if r.Trace.Len() != s.TraceEvents || sum.Delivered == 0 || sum.Lost == 0 {
			t.Fatalf("shards=%d: %d events (cap %d), summary %+v: cap not reached or outcomes missing",
				shards, r.Trace.Len(), s.TraceEvents, sum)
		}
		if shards == 1 {
			ref = r.Trace.Text()
		} else if text := r.Trace.Text(); text != ref {
			t.Errorf("shards=%d: capped frame timeline diverged from serial", shards)
		}
	}
}
