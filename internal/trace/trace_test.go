package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/mac"
	"dcfguard/internal/medium"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

func rts(src, dst frame.NodeID, seq uint32) frame.Frame {
	return frame.Frame{Type: frame.RTS, Src: src, Dst: dst, Seq: seq, Attempt: 1, AssignedBackoff: -1}
}

func TestRecorderTapAndOutcomes(t *testing.T) {
	r := New(0)
	f := rts(1, 2, 7)
	r.Tap(1, f, 0, 276*sim.Microsecond)
	g := rts(3, 2, 9)
	r.Tap(3, g, sim.Millisecond, sim.Millisecond+276*sim.Microsecond)

	r.MarkDelivered(f, 276*sim.Microsecond)
	r.Finalize(sim.Second)

	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d", len(ev))
	}
	if ev[0].Outcome != OutcomeDelivered {
		t.Fatalf("first outcome = %v, want delivered", ev[0].Outcome)
	}
	if ev[1].Outcome != OutcomeLost {
		t.Fatalf("second outcome = %v, want lost", ev[1].Outcome)
	}
}

func TestRecorderFinalizeSkipsInFlight(t *testing.T) {
	r := New(0)
	f := rts(1, 2, 7)
	r.Tap(1, f, 0, sim.Millisecond)
	r.Finalize(500 * sim.Microsecond) // frame still on the air
	if got := r.Events()[0].Outcome; got != OutcomePending {
		t.Fatalf("in-flight frame outcome = %v, want pending", got)
	}
}

func TestRecorderCap(t *testing.T) {
	r := New(2)
	for i := 0; i < 5; i++ {
		r.Tap(1, rts(1, 2, uint32(i)), sim.Time(i)*sim.Millisecond, sim.Time(i)*sim.Millisecond+1)
	}
	if r.Len() != 2 {
		t.Fatalf("capped recorder holds %d events, want 2", r.Len())
	}
}

func TestTextRendering(t *testing.T) {
	r := New(0)
	f := rts(1, 2, 7)
	r.Tap(1, f, 0, 276*sim.Microsecond)
	r.MarkDelivered(f, 276*sim.Microsecond)
	out := r.Text()
	for _, want := range []string{"RTS 1->2", "seq=7", "ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text %q missing %q", out, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	r := New(0)
	frames := []frame.Frame{
		rts(1, 2, 1),
		{Type: frame.CTS, Src: 2, Dst: 1, Seq: 1, AssignedBackoff: 5},
		{Type: frame.Data, Src: 1, Dst: 2, Seq: 1, PayloadBytes: 512},
		{Type: frame.Ack, Src: 2, Dst: 1, Seq: 1, AssignedBackoff: 5},
	}
	for i, f := range frames {
		end := sim.Time(i+1) * sim.Millisecond
		r.Tap(f.Src, f, sim.Time(i)*sim.Millisecond, end)
		r.MarkDelivered(f, end)
	}
	r.Finalize(sim.Second)
	s := r.Summarize()
	if s.RTS != 1 || s.CTS != 1 || s.Data != 1 || s.Ack != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Delivered != 4 || s.Lost != 0 {
		t.Fatalf("summary outcomes = %+v", s)
	}
}

func TestOutcomeStrings(t *testing.T) {
	if OutcomeDelivered.String() != "ok" || OutcomeLost.String() != "LOST" ||
		OutcomePending.String() != "?" {
		t.Fatal("outcome strings wrong")
	}
}

type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > 30 {
		return 0, errWriteFailed
	}
	return len(p), nil
}

var errWriteFailed = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write failed" }

func TestWriteTextPropagatesErrors(t *testing.T) {
	r := New(0)
	r.Tap(1, rts(1, 2, 1), 0, sim.Millisecond)
	r.Tap(1, rts(1, 2, 2), 2*sim.Millisecond, 3*sim.Millisecond)
	if err := r.WriteText(&failingWriter{}); err == nil {
		t.Fatal("write error swallowed")
	}
}

func TestWritePcapPropagatesErrors(t *testing.T) {
	r := New(0)
	r.Tap(1, rts(1, 2, 1), 0, sim.Millisecond)
	if err := r.WritePcap(&failingWriter{}); err == nil {
		t.Fatal("pcap write error swallowed")
	}
}

func TestPcapRoundTrip(t *testing.T) {
	r := New(0)
	frames := []frame.Frame{
		rts(1, 2, 1),
		{Type: frame.CTS, Src: 2, Dst: 1, Seq: 1, AssignedBackoff: 12},
		{Type: frame.Data, Src: 1, Dst: 2, Seq: 1, PayloadBytes: 512},
	}
	for i, f := range frames {
		start := sim.Time(i) * 3 * sim.Millisecond
		r.Tap(f.Src, f, start, start+sim.Millisecond)
	}
	var buf bytes.Buffer
	if err := r.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("read %d frames, want %d", len(got), len(frames))
	}
	for i, ev := range got {
		if ev.Frame != frames[i] {
			t.Fatalf("frame %d changed: %+v vs %+v", i, ev.Frame, frames[i])
		}
		if want := sim.Time(i) * 3 * sim.Millisecond; ev.Start != want {
			t.Fatalf("frame %d start %v, want %v", i, ev.Start, want)
		}
	}
}

func TestPcapHeaderFields(t *testing.T) {
	r := New(0)
	var buf bytes.Buffer
	if err := r.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	if len(hdr) != 24 {
		t.Fatalf("empty capture length %d, want 24", len(hdr))
	}
	if hdr[0] != 0xd4 || hdr[1] != 0xc3 || hdr[2] != 0xb2 || hdr[3] != 0xa1 {
		t.Fatalf("magic bytes %x", hdr[:4])
	}
}

func TestReadPcapRejectsGarbage(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader([]byte("not a pcap file at all!!"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadPcap(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestRecorderOnLiveSimulation(t *testing.T) {
	// Attach the recorder to a real exchange and check the timeline:
	// RTS, CTS, DATA, ACK all delivered.
	var sched sim.Scheduler
	model := phys.DefaultShadowing()
	model.SigmaDB = 0
	med := medium.New(&sched, medium.Config{Model: model}, rng.New(1))
	rec := New(0)
	med.Tap = rec.Tap

	radio := phys.CalibratedRadio(model, 24.5, 250, 0.5, 550, 0.5, 2_000_000)
	mkNode := func(id frame.NodeID, x float64) *mac.Node {
		n := mac.NewNode(id, mac.DefaultParams(), &sched, med,
			mac.NewStandardPolicy(rng.New(uint64(id)+10)), nil, mac.Callbacks{})
		med.Attach(id, phys.Point{X: x}, radio, n)
		return n
	}
	sender := mkNode(1, 0)
	mkNode(2, 100)

	sender.Enqueue(2, 512)
	sched.Run(sim.Second)
	rec.Finalize(sched.Now())

	s := rec.Summarize()
	if s.RTS != 1 || s.CTS != 1 || s.Data != 1 || s.Ack != 1 {
		t.Fatalf("live trace summary = %+v\n%s", s, rec.Text())
	}
	// Events are in start order and non-overlapping.
	ev := rec.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].Start < ev[i-1].End {
			t.Fatalf("overlapping frames in trace:\n%s", rec.Text())
		}
	}
}

// scanRecorder is the reference for Recorder's delivery index: the
// backward scan over every recorded transmission.
type scanRecorder struct {
	events []Event
	cap    int
}

func (r *scanRecorder) tap(src frame.NodeID, f frame.Frame, start, end sim.Time) {
	if r.cap > 0 && len(r.events) >= r.cap {
		return
	}
	r.events = append(r.events, Event{Start: start, End: end, Src: src, Frame: f})
}

func (r *scanRecorder) markDelivered(f frame.Frame, end sim.Time) {
	for i := len(r.events) - 1; i >= 0; i-- {
		ev := &r.events[i]
		if ev.End == end && ev.Frame == f && ev.Outcome == OutcomePending {
			ev.Outcome = OutcomeDelivered
			return
		}
	}
}

// TestRecorderMatchesScanReference drives the indexed Recorder and the
// backward-scan reference with one random stream of taps, delivery
// marks and finalizations — frames drawn from a small pool so keys and
// whole frames collide, duplicate transmissions of one frame with one
// end time, marks for never-recorded frames, caps reached early — and
// requires identical timelines after every operation.
func TestRecorderMatchesScanReference(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		capEvents := src.Intn(40) // 0 = unlimited
		r, ref := New(capEvents), &scanRecorder{cap: capEvents}
		type sent struct {
			f   frame.Frame
			end sim.Time
		}
		var history []sent
		now := sim.Time(0)
		for op := 0; op < 150; op++ {
			switch k := src.Intn(10); {
			case k < 5:
				f := rts(frame.NodeID(src.Intn(3)), 9, uint32(src.Intn(3)))
				if src.Intn(2) == 0 {
					f.Type = frame.Data
				}
				end := now + sim.Time(1+src.Intn(4))
				if len(history) > 0 && src.Intn(4) == 0 {
					h := history[src.Intn(len(history))]
					f, end = h.f, h.end // a duplicate transmission
				}
				history = append(history, sent{f, end})
				r.Tap(f.Src, f, now, end)
				ref.tap(f.Src, f, now, end)
			case k < 9 && len(history) > 0:
				h := history[src.Intn(len(history))]
				if src.Intn(5) == 0 {
					h.f.Attempt++ // same key, different frame
				}
				r.MarkDelivered(h.f, h.end)
				ref.markDelivered(h.f, h.end)
			case k == 9:
				r.Finalize(now)
				for i := range ref.events {
					if ref.events[i].Outcome == OutcomePending && ref.events[i].End <= now {
						ref.events[i].Outcome = OutcomeLost
					}
				}
			}
			now += sim.Time(src.Intn(2))
			if got := r.Events(); !reflect.DeepEqual(got, ref.events) && len(got)+len(ref.events) > 0 {
				t.Fatalf("trial %d op %d (cap %d): indexed timeline\n%v\nscan reference\n%v",
					trial, op, capEvents, got, ref.events)
			}
		}
	}
}

// TestRecorderMarksAfterCapChangeNothing checks that once the cap is
// reached, delivery marks for the unrecorded transmissions — including
// ones equal to a recorded frame but with another end time — leave
// every recorded outcome as it was.
func TestRecorderMarksAfterCapChangeNothing(t *testing.T) {
	r := New(3)
	for i := 0; i < 6; i++ {
		start := sim.Time(i) * sim.Millisecond
		r.Tap(1, rts(1, 2, uint32(i%3)), start, start+276*sim.Microsecond)
	}
	r.MarkDelivered(rts(1, 2, 1), sim.Millisecond+276*sim.Microsecond)
	before := r.Events()
	for i := 3; i < 6; i++ {
		start := sim.Time(i) * sim.Millisecond
		r.MarkDelivered(rts(1, 2, uint32(i%3)), start+276*sim.Microsecond)
	}
	if got := r.Events(); !reflect.DeepEqual(got, before) {
		t.Fatalf("marks past the cap changed the timeline:\nbefore %v\nafter  %v", before, got)
	}
	if before[1].Outcome != OutcomeDelivered || before[0].Outcome != OutcomePending || before[2].Outcome != OutcomePending {
		t.Fatalf("outcomes %v %v %v, want pending delivered pending",
			before[0].Outcome, before[1].Outcome, before[2].Outcome)
	}
}

// BenchmarkMarkDeliveredPastCap times a delivery mark once the timeline
// cap is reached: O(1), not a scan of the recorded frames.
func BenchmarkMarkDeliveredPastCap(b *testing.B) {
	r := New(1000)
	for i := 0; i < 1000; i++ {
		r.Tap(1, rts(1, 2, uint32(i)), sim.Time(i), sim.Time(i)+1)
	}
	f := rts(1, 2, 5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.MarkDelivered(f, sim.Time(i))
	}
}
