package experiment

import (
	"fmt"
	"testing"

	"dcfguard/internal/faults"
	"dcfguard/internal/sim"
)

// Fault-injection determinism goldens, the sibling of TestDeterminismGolden
// for runs with faults *enabled*: a fixed-FER run, a Gilbert burst-loss
// run, and a node-churn run, 2 s each, seeds 1-3. They pin the injector's
// counter-RNG draw discipline and the churn schedule: any change to a
// link key, a Markov step, or a crash instant shifts these checksums.
// Like the other goldens, they were captured once from the
// implementation under test review and must not be updated to paper
// over a behavioral change.

// faultResultChecksum extends the golden checksum with the two
// fault-specific Result fields (which are always zero in the v2 golden
// scenarios, so those goldens keep their original function).
func faultResultChecksum(r Result) uint64 {
	s := fmt.Sprintf("%#x|%d|%d", resultChecksum(r), r.FaultDrops, r.Restarts)
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func faultGoldenScenarios() []Scenario {
	fer := DefaultScenario()
	fer.Name = "faults-fer20-v2"
	fer.PM = 80
	fer.Duration = 2 * sim.Second
	fer.Faults.FER = 0.20

	burst := DefaultScenario()
	burst.Name = "faults-burst20-v2"
	burst.PM = 80
	burst.Duration = 2 * sim.Second
	ge := faults.GEForMeanFER(0.20, 0.25)
	burst.Faults.Burst = &ge

	churn := DefaultScenario()
	churn.Name = "faults-churn-v2"
	churn.PM = 80
	churn.Duration = 2 * sim.Second
	churn.Faults.ChurnInterval = 500 * sim.Millisecond
	churn.Faults.ChurnDowntime = 100 * sim.Millisecond

	return []Scenario{fer, burst, churn}
}

var faultGoldenChecksums = map[string][3]uint64{
	"faults-fer20-v2":   {0xab72535b9dd8b8a1, 0xb2f777e777b2b5fd, 0xb7bf8129ef9cdc98},
	"faults-burst20-v2": {0x830587214c55989d, 0x89975e107aa17f21, 0x6f7ff24992cec712},
	"faults-churn-v2":   {0xa59d5a879842dbef, 0x37b4c71e856f233e, 0x517da0badef93fd3},
}

func TestFaultDeterminismGolden(t *testing.T) {
	for _, s := range faultGoldenScenarios() {
		want, ok := faultGoldenChecksums[s.Name]
		if !ok {
			t.Fatalf("no golden for scenario %q", s.Name)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			r, err := Run(s, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name, seed, err)
			}
			got := faultResultChecksum(r)
			if got != want[seed-1] {
				t.Errorf("%s seed %d: checksum %#x, golden %#x — fault injection perturbed the run",
					s.Name, seed, got, want[seed-1])
			}
		}
	}
}

// TestFaultScenariosActuallyInject guards the goldens against vacuity:
// the error-model scenarios must drop frames and the churn scenario must
// complete crash/restart cycles, otherwise the checksums above would pin
// nothing new.
func TestFaultScenariosActuallyInject(t *testing.T) {
	for _, s := range faultGoldenScenarios() {
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
