package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"dcfguard"
	"dcfguard/internal/atomicio"
)

// benchRuns is how many runs time each guarded workload, over seeds
// 1..benchSeeds in turn; the fastest run is the baseline. Like the
// guards' best-of batches, the minimum records what the machine can do
// rather than its noisiest moment.
const (
	benchRuns  = 15
	benchSeeds = 5
)

// runBench records ./BENCH.json: one entry per workload a guard reads
// (dcfguard.BenchGuarded), each the fastest of benchRuns runs timed by
// dcfguard.BenchTime, plus the HostReference probe the guards scale
// their bounds by. The fastest run gives both ns_per_op and
// events_per_sec.
func runBench(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("takes no flags or arguments, got %q", args)
	}
	file := dcfguard.BenchFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	for _, w := range dcfguard.BenchGuarded() {
		var fastest time.Duration
		var events uint64
		for i := 0; i < benchRuns; i++ {
			var r dcfguard.Result
			d, err := dcfguard.BenchTime(func() (err error) {
				r, err = dcfguard.Run(w.Scenario, uint64(i%benchSeeds+1))
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if i == 0 || d < fastest {
				fastest, events = d, r.EventsFired
			}
		}
		file.Results = append(file.Results, dcfguard.BenchEntry{
			Name:         w.Name,
			NsPerOp:      fastest.Nanoseconds(),
			EventsPerSec: float64(events) / fastest.Seconds(),
		})
	}
	file.Results = append(file.Results, dcfguard.BenchEntry{
		Name:         dcfguard.HostReference,
		EventsPerSec: dcfguard.HostReferenceRate(),
	})
	for _, e := range file.Results {
		fmt.Printf("%-14s %12d ns/op %14.0f events/sec\n", e.Name, e.NsPerOp, e.EventsPerSec)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := atomicio.WriteFile("BENCH.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote BENCH.json (%d entries)\n", len(file.Results))
	return nil
}
