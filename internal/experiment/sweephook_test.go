package experiment

// SwapSweep replaces the pool that plans and ExtFaultTolerance run on
// until restore is called, so the external tests can see or break the
// cells a generator plans.
func SwapSweep(f func([]SweepCell, SweepOptions) (SweepReport, error)) (restore func()) {
	old := runSweep
	runSweep = f
	return func() { runSweep = old }
}
