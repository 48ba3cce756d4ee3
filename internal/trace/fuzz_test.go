package trace

import (
	"bytes"
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/sim"
)

// FuzzReadPcap ensures the pcap parser never panics or over-allocates
// on arbitrary input, and that valid captures round-trip.
func FuzzReadPcap(f *testing.F) {
	// Seed with a valid two-frame capture.
	r := New(0)
	r.tap(frame.Frame{Type: frame.RTS, Src: 1, Dst: 2, Seq: 1, Attempt: 1},
		0, 276*sim.Microsecond)
	r.tap(frame.Frame{Type: frame.CTS, Src: 2, Dst: 1, Seq: 1, AssignedBackoff: 9},
		sim.Millisecond, sim.Millisecond+256*sim.Microsecond)
	var buf bytes.Buffer
	if err := r.WritePcap(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(buf.Bytes()[:25]) // truncated record header

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadPcap(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted captures re-serialise to a parseable capture with
		// the same frames.
		rec := New(0)
		for _, ev := range events {
			rec.tap(ev.Frame, ev.Start, ev.Start+sim.Microsecond)
		}
		var out bytes.Buffer
		if err := rec.WritePcap(&out); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		again, err := ReadPcap(&out)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed frame count: %d vs %d", len(again), len(events))
		}
	})
}
