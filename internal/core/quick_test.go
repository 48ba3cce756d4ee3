package core

import (
	"testing"
	"testing/quick"
)

// TestQuickMonitorInvariants drives a monitor with arbitrary sender
// countdown behaviour and checks the structural invariants that must
// hold regardless of what the sender does:
//
//   - the diagnosis window never exceeds W entries;
//   - a "misbehaving" classification implies the windowed sum exceeded
//     the threshold in force at that moment;
//   - penalties are never negative and never exceed the cap;
//   - assignments are never negative.
func TestQuickMonitorInvariants(t *testing.T) {
	f := func(slots []uint16, seed uint64) bool {
		params := DefaultParams()
		h := newHarness(params)
		assigned := h.exchange(5)
		for _, s := range slots {
			if len(slots) > 40 {
				break
			}
			counted := int(s) % 80
			if assigned >= 0 {
				next := h.exchange(counted)
				if next < 0 {
					return false // no blocking configured; must respond
				}
				assigned = next
			}
			r := h.m.senders[1]
			if len(r.window) > params.Window {
				return false
			}
			if r.pendingPenalty < 0 {
				return false
			}
			if r.diagnosed {
				sum := 0.0
				for _, d := range r.window {
					sum += d
				}
				if sum <= h.m.CurrentThresh() {
					return false
				}
			}
		}
		for _, pen := range h.penalties() {
			if pen < 0 || (params.PenaltyCap > 0 && pen > params.PenaltyCap) {
				return false
			}
		}
		for _, dev := range h.deviations() {
			if dev <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
