package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"dcfguard/internal/obs"
)

// The traced pass (-trace 1) produces the per-layer metrics. It never
// times the end-to-end metrics: tracing perturbs them.
//
//  1. Reps of the workload under a CPU profile until the time budget is
//     spent: each layer's self time from the profile's leaf frames, and
//     the runtime's GC share and allocation from runtime/metrics.
//  2. The rep's simulation runs, once plain and once with the metrics
//     registry on, at the rep's parallelism: the layer counts, and the
//     registry's overhead. Results must not change (obs is pass-through).
//  3. One subject run recorded and replayed layer by layer on fresh
//     instances (replay.go).

// layerVals holds per-layer metric values and, where a metric was
// sampled more than once, its samples.
type layerVals struct {
	vals     map[string]float64
	samples  map[string][]float64
	ops      int
	failures []string
}

func (lv *layerVals) set(name string, v float64) { lv.vals[name] = v }

func (lv *layerVals) fail(err error) {
	if err != nil {
		lv.failures = append(lv.failures, err.Error())
	}
}

func (lv *layerVals) opDone(err error) {
	lv.ops++
	lv.fail(err)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func traced(w workload, e env, budget time.Duration) (*layerVals, error) {
	lv := &layerVals{vals: map[string]float64{}, samples: map[string][]float64{}}
	for _, m := range perLayer {
		lv.vals[m.name] = 0
	}
	cs := w.cellSet()
	repeat := float64(cs.repeat)

	// 1. Profiled reps first, so the counting passes after them both run
	// in a warm process.
	reps, err := profiledReps(w, e, budget, lv)
	if err != nil {
		return nil, err
	}

	// 2. Counts.
	plain, plainOps, plainWall := runCells(cs, 0, nil)
	reg := obs.NewRegistry()
	counted, countOps, countWall := runCells(cs, 0, &obs.Config{Registry: reg})
	var events uint64
	for i := range cs.cells {
		lv.opDone(plainOps[i].err)
		lv.opDone(countOps[i].err)
		if plainOps[i].err == nil && countOps[i].err == nil && resultSum(plain[i]) != resultSum(counted[i]) {
			lv.fail(fmt.Errorf("%s seed %d: result changed with the metrics registry on", cs.cells[i].s.Name, cs.cells[i].seed))
		}
		events += counted[i].EventsFired
	}
	// Every rep must fire exactly the events the counting pass did:
	// otherwise the cell list does not mirror the rep.
	for _, r := range reps {
		if want := events * uint64(cs.repeat); r.events != want {
			lv.fail(fmt.Errorf("rep fired %d events, the counting pass %d", r.events, want))
		}
	}
	snap := reg.Snapshot()
	lv.set("sim.events", float64(events)*repeat)
	lv.set("sim.events_per_s", ratio(float64(events), plainWall.Seconds()))
	lv.set("trace.overhead_frac", ratio(countWall.Seconds(), plainWall.Seconds())-1)
	layerCounts(lv, snap, repeat)

	var setups []float64
	for i := 0; i < 3; i++ {
		d, err := buildWorlds(cs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(d)/1e6/float64(len(cs.cells)))
	}
	lv.set("experiment.setup_ms_per_run", median(setups))

	if d, ok := w.(*daemonSweep); ok {
		if err := d.traceExtras(reps, lv); err != nil {
			return nil, err
		}
	}

	// 3. Replays.
	replays(w.subject(), e.dir, lv)
	return lv, nil
}

// layerCounts reads the layers' work counts from the registry snapshot
// of one pass over the rep's cells, scaled to one rep.
func layerCounts(lv *layerVals, snap obs.Snapshot, repeat float64) {
	c := func(scope, name string) float64 { return float64(counter(snap, scope, name)) }
	tx := c("medium", "transmissions")
	lv.set("medium.transmissions", tx*repeat)
	lv.set("medium.collision_ratio", ratio(c("medium", "collisions"), tx))
	lv.set("faults.drops", c("medium", "fault_drops")*repeat)
	lv.set("mac.tx_success", c("mac", "tx_success")*repeat)
	packets := c("monitor", "packets")
	lv.set("core.packets", packets*repeat)
	lv.set("core.deviation_ratio", ratio(c("monitor", "deviations"), packets))

	var attempts, exchanges, busy, wait float64
	var shardEvents []float64
	for _, h := range snap.Histograms {
		switch {
		case h.Scope == "mac" && h.Name == "attempts":
			attempts += h.Sum
			exchanges += float64(h.Count)
		case h.Scope == "shard" && h.Name == "busy_us":
			busy += h.Sum
		case h.Scope == "shard" && h.Name == "barrier_wait_us":
			wait += h.Sum
		}
	}
	for _, p := range snap.Counters {
		if p.Scope == "shard" && p.Name == "events" {
			shardEvents = append(shardEvents, float64(p.Value))
		}
	}
	lv.set("mac.attempts_mean", ratio(attempts, exchanges))
	lv.set("sim.barrier_wait_frac", ratio(wait, busy+wait))
	lv.set("sim.windows", c("shard", "windows")*repeat)
	if len(shardEvents) > 0 {
		maxE, sum := 0.0, 0.0
		for _, x := range shardEvents {
			sum += x
			if x > maxE {
				maxE = x
			}
		}
		lv.set("sim.shard_imbalance", ratio(maxE, sum/float64(len(shardEvents))))
	}
}

// profiledReps runs reps under the CPU profiler until budget is spent
// (at least one), and derives the self times, the runtime's share and
// the rep's own phase measurements.
func profiledReps(w workload, e env, budget time.Duration, lv *layerVals) ([]repOut, error) {
	runtime.GC()
	var prof bytes.Buffer
	rt0, cpu0 := readRuntime(), processCPU()
	start := time.Now()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	reps, err := measure(w, budget, 1)
	pprof.StopCPUProfile()
	wall := time.Since(start)
	rt1, cpu1 := readRuntime(), processCPU()
	if err != nil {
		return nil, err
	}
	n := float64(len(reps))
	for _, r := range reps {
		for _, o := range r.ops {
			lv.opDone(o.err)
		}
		for _, name := range sortedKeys(r.samples) {
			lv.samples[name] = append(lv.samples[name], r.samples[name]...)
		}
	}
	for name, xs := range lv.samples {
		lv.set(name, median(xs))
	}
	profPath := filepath.Join(e.dir, "cpu.pprof")
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	byLayer, err := cpuByLayer(profPath)
	if err != nil {
		return nil, err
	}
	total := byLayer["other"]
	for _, l := range layers {
		total += byLayer[l]
		if _, ok := lv.vals[l+".self_s"]; ok {
			lv.set(l+".self_s", byLayer[l]/n)
		}
	}
	lv.set("trace.profile_other_frac", ratio(byLayer["other"], total))
	lv.set("experiment.cpu_util", ratio((cpu1-cpu0).Seconds(), wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	lv.set("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	lv.set("runtime.alloc_mb", (rt1.allocs-rt0.allocs)/1e6/n)
	return reps, nil
}

// replays records the subject and times each layer alone on it.
func replays(sub subject, dir string, lv *layerVals) {
	rec, err := record(sub)
	lv.opDone(err)
	if err != nil {
		return
	}
	ns, err := replayMedium(rec)
	lv.opDone(err)
	lv.set("medium.ns_per_tx", ns)
	if rec.monitors > 0 {
		ns, err := replayCore(rec)
		lv.opDone(err)
		lv.set("core.ns_per_packet", ns)
	}
	if sub.obs {
		ns, err := replayObs(rec, dir)
		lv.opDone(err)
		lv.set("obs.ns_per_record", ns)
	}
	pending, err := pendingEvents(rec)
	lv.opDone(err)
	lv.set("sim.ns_per_event", replaySim(rec.result.EventsFired, pending, sub.s.Duration))
}

// runtimeStats are the runtime/metrics counters the traced pass reads.
type runtimeStats struct{ gcCPU, totalCPU, allocs float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeStats{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), allocs: val(s[2].Value)}
}

// processCPU is this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS is this process's peak resident set, in MB.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
