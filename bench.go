package dcfguard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"syscall"
	"time"

	"dcfguard/internal/rng"
)

// This file defines the benchmark workloads in one place. The
// Benchmark* functions in bench_test.go time them one by one under
// `go test -bench`; BENCH.json holds only the baselines that the
// machine-local guards read (BenchGuarded, HostReference), written by
// `macsim bench` with the guards' own estimator, BenchTime.

// BenchFigConfig is the reduced per-iteration figure configuration used
// by the BenchmarkFig* suite: short runs, two seeds, two network sizes.
func BenchFigConfig() Config {
	cfg := QuickConfig()
	cfg.Duration = 2 * Second
	cfg.Seeds = Seeds(2)
	cfg.PMs = []int{0, 80}
	cfg.NetworkSizes = []int{2, 8}
	cfg.Fig8PMs = []int{80}
	return cfg
}

// BenchScenario80211Star is the raw-kernel baseline: the 8-sender star
// under plain 802.11, 2 simulated seconds.
func BenchScenario80211Star() Scenario {
	s := DefaultScenario()
	s.Duration = 2 * Second
	s.Protocol = Protocol80211
	return s
}

// BenchScenarioCorrectStar is the star with the full monitor pipeline
// active and the PM-80 misbehaver.
func BenchScenarioCorrectStar() Scenario {
	s := DefaultScenario()
	s.Duration = 2 * Second
	s.Protocol = ProtocolCorrect
	s.PM = 80
	return s
}

// BenchScenarioRandom40V2 is the Figure-9 40-node random topology with
// 5 misbehaving senders at PM 80, on channel model v2.
func BenchScenarioRandom40V2() Scenario {
	s := DefaultScenario()
	s.Name = "random-40-v2"
	s.Duration = 2 * Second
	s.Topo = RandomTopo(40, 5)
	s.PM = 80
	return s
}

// BenchScenarioRandom200 is a 200-node sparse random topology under
// plain 802.11 and channel model v2 — a pure kernel-scaling workload
// (no monitor pipeline), where runtime is dominated by the scheduler
// and channel fan-out the v2 index is meant to prune.
func BenchScenarioRandom200() Scenario {
	s := DefaultScenario()
	s.Name = "random-200-v2"
	s.Duration = 1 * Second
	s.Protocol = Protocol80211
	s.Topo = ScaledRandomTopo(200, 25)
	s.PM = 80
	return s
}

// BenchScenarioRandom400 is the 400-node kernel-scaling workload under
// channel model v2.
func BenchScenarioRandom400() Scenario {
	s := DefaultScenario()
	s.Name = "random-400-v2"
	s.Duration = 1 * Second
	s.Protocol = Protocol80211
	s.Topo = ScaledRandomTopo(400, 50)
	s.PM = 80
	return s
}

// benchScenarioRandomV3 builds the channel-model-v3 kernel-scaling
// workload: n nodes, n/8 misbehaving senders, plain 802.11 (no monitor
// pipeline), sharded onto the given scheduler count (1 = serial).
// Durations shrink with n so every size stays a tractable single
// iteration; events/sec is the comparable metric across sizes.
func benchScenarioRandomV3(n int, d Time, shards int) Scenario {
	s := DefaultScenario()
	s.Name = fmt.Sprintf("random-%dk-v3", n/1000)
	if shards > 1 {
		s.Name = fmt.Sprintf("%s-sharded", s.Name)
	}
	s.Duration = d
	s.Protocol = Protocol80211
	s.Topo = ScaledRandomTopo(n, n/8)
	s.PM = 80
	s.Channel = ChannelV3
	s.Shards = shards
	return s
}

// benchShards is the shard count of BenchScenarioRandom10kV3Sharded,
// the 4-way partition TestShardSpeedupGuard states its target against.
const benchShards = 4

// BenchScenarioRandom4kV3 is the 4000-node serial v3 workload, the
// base of dcfbench's scale-4k-sharded.
func BenchScenarioRandom4kV3() Scenario { return benchScenarioRandomV3(4000, 200*Millisecond, 1) }

// BenchScenarioRandom10kV3 is the 10000-node serial v3 workload, the
// serial side of TestShardSpeedupGuard.
func BenchScenarioRandom10kV3() Scenario { return benchScenarioRandomV3(10000, 100*Millisecond, 1) }

// BenchScenarioRandom10kV3Sharded is the 4-shard pair of BenchScenarioRandom10kV3.
func BenchScenarioRandom10kV3Sharded() Scenario {
	return benchScenarioRandomV3(10000, 100*Millisecond, benchShards)
}

// HostReference names BENCH.json's host-speed entry: its
// events_per_sec is HostReferenceRate when the file was recorded.
const HostReference = "HostReference"

// BenchWorkload is one scenario entry of BENCH.json.
type BenchWorkload struct {
	Name     string
	Scenario Scenario
}

// BenchGuarded lists BENCH.json's scenario entries in file order.
// With HostReference they are all the file holds, because each is a
// baseline that a machine-local guard reads:
//   - RunRandom40V2: events_per_sec, for the kernel-throughput guard,
//     and ns_per_op, for the disabled-observability and serve overhead
//     guards;
//   - RunRandom400: events_per_sec, for the kernel-throughput guard.
func BenchGuarded() []BenchWorkload {
	return []BenchWorkload{
		{"RunRandom40V2", BenchScenarioRandom40V2()},
		{"RunRandom400", BenchScenarioRandom400()},
	}
}

// BenchFile is the BENCH.json schema, written by `macsim bench`.
type BenchFile struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	// GOMAXPROCS qualifies every number: the host's parallelism when
	// the file was recorded.
	GOMAXPROCS int          `json:"gomaxprocs"`
	Results    []BenchEntry `json:"results"`
}

// BenchEntry is one BENCH.json baseline: the fastest run's BenchTime
// (zero for HostReference) and the events per second of that run.
type BenchEntry struct {
	Name         string  `json:"name"`
	NsPerOp      int64   `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// LoadBench reads a BENCH.json file and returns its entries by name.
// Unknown fields and repeated names are errors, so the file cannot
// carry numbers that no guard reads.
func LoadBench(path string) (map[string]BenchEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f BenchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	entries := make(map[string]BenchEntry, len(f.Results))
	for _, e := range f.Results {
		if _, dup := entries[e.Name]; dup {
			return nil, fmt.Errorf("%s: entry %q appears twice", path, e.Name)
		}
		entries[e.Name] = e
	}
	return entries, nil
}

// BenchTime runs f once and returns its cost as min(wall, process
// CPU): contention on a shared host inflates wall time but not the CPU
// burned, and wall time strips accounting skew the other way. The
// guards and `macsim bench` time every run with it, so a baseline and
// its check use one estimator.
func BenchTime(f func() error) (time.Duration, error) {
	wall0, cpu0 := time.Now(), processCPUTime()
	err := f()
	d, cpu := time.Since(wall0), processCPUTime()-cpu0
	if cpu > 0 && cpu < d {
		d = cpu
	}
	return d, err
}

// hostRefOps is the iteration count of the host-reference loop: enough
// Mix64 rounds to run for tens of milliseconds — long enough to average
// over scheduler jitter, short enough to repeat in every guard run.
const hostRefOps = 1 << 23

// hostRefSink defeats dead-code elimination of the reference loop.
var hostRefSink uint64

// HostReferenceRate measures this machine's current scalar throughput
// as Mix64 rounds per second, best of three BenchTime batches.
// BENCH.json records it next to the kernel numbers (HostReference) so
// the guards can tell a kernel regression from the shared host simply
// clocking slower than it did when the baseline was captured: they
// scale their bounds by (rate now / rate recorded), capped at 1 so a
// faster host never loosens them. A pure ALU loop tracks frequency
// drift on both counts — it shares no caches or allocator state with
// the simulator, which is exactly why it isolates the host-speed
// factor.
func HostReferenceRate() float64 {
	best := 0.0
	for batch := 0; batch < 3; batch++ {
		acc := uint64(batch)
		d, _ := BenchTime(func() error {
			for i := uint64(0); i < hostRefOps; i++ {
				acc = rng.Mix64(acc, i)
			}
			return nil
		})
		hostRefSink += acc
		if s := d.Seconds(); s > 0 {
			if r := float64(hostRefOps) / s; r > best {
				best = r
			}
		}
	}
	return best
}

// processCPUTime returns this process's cumulative user+system CPU
// time; zero if rusage is unavailable.
func processCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
