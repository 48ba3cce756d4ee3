package core

import (
	"testing"

	"dcfguard/internal/sim"
)

// crashRestart crashes the harness monitor at its current time and
// restarts it after downtime, advancing the harness clock past the gap.
func (h *monitorHarness) crashRestart(downtime sim.Time) {
	h.m.Crash(h.now)
	h.now += downtime
	h.m.Restart(h.now)
	h.now += sim.Millisecond
}

// TestMonitorChurnResync is the fault-injection re-synchronisation
// contract: a receiver that crashes and loses its per-sender state
// (B_exp, the diagnosis window, the observation mark) must not diagnose
// a correct sender when traffic resumes — whatever backoff the sender
// happens to arrive with, because the sender is still counting an
// assignment the receiver no longer remembers. Detection must re-arm
// only after a full post-restart assignment cycle, and must still catch
// a sender that misbehaves against the new assignments.
func TestMonitorChurnResync(t *testing.T) {
	cases := []struct {
		name string
		// preCrash honest exchanges before the crash.
		preCrash int
		// firstSlots is what the sender counts on its first post-restart
		// exchange (a stale assignment, or 0 — the most aggressive-looking
		// arrival possible).
		firstSlots func(staleAssigned int) int
		// resumed chooses what the sender counts once re-assigned: the
		// new assignment (honest) or half of it (misbehaving).
		resumed func(assigned int) int
		// wantDeviations/wantMisclassified after 10 resumed exchanges.
		wantDeviations bool
		wantMisbehaved bool
	}{
		{
			name:       "honest sender counting stale assignment",
			preCrash:   5,
			firstSlots: func(stale int) int { return stale },
			resumed:    func(a int) int { return a },
		},
		{
			name:       "honest sender arriving with zero slots",
			preCrash:   5,
			firstSlots: func(int) int { return 0 },
			resumed:    func(a int) int { return a },
		},
		{
			name:       "no traffic before crash",
			preCrash:   0,
			firstSlots: func(int) int { return 3 },
			resumed:    func(a int) int { return a },
		},
		{
			name:           "misbehaver still caught after restart",
			preCrash:       5,
			firstSlots:     func(stale int) int { return stale },
			resumed:        func(a int) int { return a / 2 },
			wantDeviations: true,
			wantMisbehaved: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(DefaultParams())
			assigned := h.exchange(5)
			for i := 1; i < tc.preCrash; i++ {
				assigned = h.exchange(assigned)
			}

			h.crashRestart(100 * sim.Millisecond)
			preDeviations := len(h.deviations())
			preClassified := len(h.classified())

			// First post-restart exchange: the wiped receiver has no
			// assignment on record for this sender, so whatever it counts
			// must pass unjudged and produce a fresh assignment.
			newAssigned := h.exchange(tc.firstSlots(assigned))
			if newAssigned < 0 {
				t.Fatal("restarted monitor refused the first exchange")
			}
			if len(h.deviations()) != preDeviations {
				t.Fatalf("first post-restart exchange flagged a deviation (sender was counting state the receiver lost)")
			}
			if len(h.classified()) != preClassified {
				t.Fatalf("first post-restart exchange was classified with no window on record")
			}

			// Resume traffic against the new assignments.
			for i := 0; i < 10; i++ {
				newAssigned = h.exchange(tc.resumed(newAssigned))
			}
			gotDeviations := len(h.deviations()) > preDeviations
			if gotDeviations != tc.wantDeviations {
				t.Fatalf("deviations after resync = %v, want %v (%d flagged)",
					gotDeviations, tc.wantDeviations, len(h.deviations())-preDeviations)
			}
			gotMis := false
			for _, mis := range h.classified()[preClassified:] {
				gotMis = gotMis || mis
			}
			if gotMis != tc.wantMisbehaved {
				t.Fatalf("misbehavior classification after resync = %v, want %v", gotMis, tc.wantMisbehaved)
			}
		})
	}
}

// TestMonitorDownRefusesService: while crashed, the monitor answers no
// frame and completes no exchange; Restarts counts completed cycles.
func TestMonitorDownRefusesService(t *testing.T) {
	h := newHarness(DefaultParams())
	if h.exchange(5) < 0 {
		t.Fatal("healthy monitor refused an exchange")
	}
	h.m.Crash(h.now)
	if !h.m.Down() {
		t.Fatal("Down() = false after Crash")
	}
	if got := h.exchange(3); got != -1 {
		t.Fatalf("crashed monitor responded with assignment %d", got)
	}
	if h.m.Restarts() != 0 {
		t.Fatalf("Restarts() = %d before any restart", h.m.Restarts())
	}
	h.m.Restart(h.now)
	if h.m.Down() {
		t.Fatal("Down() = true after Restart")
	}
	if h.m.Restarts() != 1 {
		t.Fatalf("Restarts() = %d after one cycle, want 1", h.m.Restarts())
	}
	// Restart without a preceding crash is a no-op on the counter.
	h.m.Restart(h.now)
	if h.m.Restarts() != 1 {
		t.Fatalf("Restarts() = %d after redundant restart, want 1", h.m.Restarts())
	}
	if h.exchange(4) < 0 {
		t.Fatal("restarted monitor refused an exchange")
	}
}
