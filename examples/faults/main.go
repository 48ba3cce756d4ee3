// Faults: how well does the paper's detection scheme survive the real
// world? Its sensor is the channel itself — the receiver counts idle
// slots to estimate the sender's backoff — so lost CTS/ACK frames and
// rebooting receivers feed straight into the deviation estimate. This
// example injects both fault classes and runs the sweep through the
// crash-safe resumable runner:
//
//  1. an i.i.d. vs bursty frame-error sweep over an all-honest network,
//     measuring how fast *false* diagnoses grow with loss rate;
//  2. receiver churn: a monitor that crashes and restarts mid-run loses
//     its per-sender history and must re-synchronise without accusing
//     the (correct) senders it forgot;
//  3. the journaled sweep runner: kill the process mid-sweep and rerun —
//     finished (scenario, seed) cells are loaded from the journal and
//     only the rest execute.
//
// Run it with:
//
//	go run ./examples/faults
package main

import (
	"fmt"
	"log"
	"os"

	"dcfguard"
)

func main() {
	fmt.Println("fault injection: channel error + receiver churn vs the CORRECT scheme")
	fmt.Println()

	// 1. False diagnoses vs frame-error rate, i.i.d. and bursty. Eight
	// honest senders: every diagnosis here is a false accusation.
	cfg := dcfguard.QuickConfig()
	cfg.Duration = 10 * dcfguard.Second
	cfg.FERs = []float64{0, 0.10, 0.20, 0.30}

	journal, err := os.MkdirTemp("", "faults-journal-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(journal)

	cfg.Sweep = dcfguard.SweepOptions{JournalDir: journal}
	table, err := dcfguard.ExtFaultTolerance(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table.Render())

	// 2. The same sweep again, against the same journal: every cell is
	// already checkpointed, so nothing runs — this is what recovering an
	// interrupted overnight sweep looks like.
	progress := &dcfguard.SweepProgress{}
	cfg.Sweep.Progress = progress
	if _, err := dcfguard.ExtFaultTolerance(cfg); err != nil {
		log.Fatal(err)
	}
	snap := progress.Snapshot()
	fmt.Printf("rerun against the journal: %d cells resumed, %d executed\n\n",
		snap.Resumed, snap.Ran)

	// 3. Receiver churn under active misbehavior: the access point
	// reboots every ~2 s (losing all per-sender state) while node 3
	// shaves 80%% of every backoff. Diagnosis survives the amnesia.
	s := dcfguard.DefaultScenario()
	s.Name = "churn"
	s.Duration = 15 * dcfguard.Second
	s.PM = 80
	s.Faults.ChurnInterval = 2 * dcfguard.Second
	s.Faults.ChurnDowntime = 200 * dcfguard.Millisecond

	r, err := dcfguard.Run(s, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("churning receiver (mean up 2s, down 200ms), PM=80%%:\n")
	fmt.Printf("  receiver restarts   %d (state wiped each time)\n", r.Restarts)
	fmt.Printf("  correct diagnosis   %.1f%%\n", r.CorrectDiagnosisPct)
	fmt.Printf("  misdiagnosis        %.1f%%\n", r.MisdiagnosisPct)
	fmt.Printf("  MSB vs AVG goodput  %.1f vs %.1f Kbps\n",
		r.AvgMisbehaverKbps, r.AvgHonestKbps)
}
