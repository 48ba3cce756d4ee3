package core

import (
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/mac"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

// Per-layer baselines for the monitor. Both benchmarks replay the
// receiver's view of a saturated 8-sender star at 2 Mbps: back-to-back
// RTS/CTS/DATA/ACK exchanges, eight carrier transitions every 3.5 ms on
// average, under the default 2 s HistoryHorizon, so about 4,500
// transitions are always retained. An implementation whose
// per-transition or per-packet cost grows with the retained history
// shows up as a large ns/op jump. One op is one exchange.

const (
	benchSenders = 8
	// benchWarmup exchanges fill about three horizons of history before
	// timing starts, so the observer's backing array is at steady size.
	benchWarmup = 2000
)

// Frame airtimes at 2 Mbps with the 192 µs long preamble.
const (
	benchRTS  = 272 * sim.Microsecond
	benchCTS  = 248 * sim.Microsecond
	benchData = 2352 * sim.Microsecond
	benchAck  = 248 * sim.Microsecond
)

// starExchange returns the busy intervals — RTS, CTS, DATA, ACK — of
// the i-th exchange on a channel idle since t: DIFS plus 0–31 backoff
// slots of idle, then the four frames separated by SIFS.
func starExchange(i int, t sim.Time, mp mac.Params) [4][2]sim.Time {
	start := t + mp.DIFS() + sim.Time(i*7%32)*mp.SlotTime
	var fr [4][2]sim.Time
	for k, air := range [4]sim.Time{benchRTS, benchCTS, benchData, benchAck} {
		fr[k] = [2]sim.Time{start, start + air}
		start += air + mp.SIFS
	}
	return fr
}

var benchSlots int

// BenchmarkIdleObserver: per exchange, eight carrier transitions plus
// one B_act query spanning the sender's last eight exchanges (from its
// previous ACK to its RTS).
func BenchmarkIdleObserver(b *testing.B) {
	mp := mac.DefaultParams()
	o := NewIdleObserver(mp.SlotTime, mp.DIFS(), DefaultParams().HistoryHorizon)
	var now sim.Time
	var marks [benchSenders]sim.Time
	step := func(i int) int {
		fr := starExchange(i, now, mp)
		for _, f := range fr {
			o.OnBusy(f[0])
			o.OnIdle(f[1])
		}
		s := i % benchSenders
		n := o.IdleSlots(marks[s], fr[0][0])
		marks[s], now = fr[3][1], fr[3][1]
		return n
	}
	for i := 0; i < benchWarmup; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSlots = step(benchWarmup + i)
	}
}

// BenchmarkMonitorCheck: per exchange, the monitor sees the carrier
// transitions, the RTS (deviation check and diagnosis window), the
// DATA and the ACK it sends, from senders 1–8 in turn.
func BenchmarkMonitorCheck(b *testing.B) {
	mp := mac.DefaultParams()
	m := NewMonitor(0, DefaultParams(), mp, rng.New(1), Events{})
	var now sim.Time
	step := func(i int) {
		fr := starExchange(i, now, mp)
		src := frame.NodeID(i%benchSenders + 1)
		seq := uint32(i/benchSenders + 1)
		rts := frame.Frame{Type: frame.RTS, Src: src, Dst: 0, Seq: seq, Attempt: 1}
		m.OnCarrierBusy(fr[0][0])
		m.OnRTS(rts, fr[0][0], fr[0][1])
		m.OnCarrierIdle(fr[0][1])
		m.OnCarrierBusy(fr[1][0])
		m.OnCarrierIdle(fr[1][1])
		m.OnCarrierBusy(fr[2][0])
		m.OnData(frame.Frame{Type: frame.Data, Src: src, Dst: 0, Seq: seq, PayloadBytes: 512}, fr[2][0], fr[2][1])
		m.OnCarrierIdle(fr[2][1])
		m.OnCarrierBusy(fr[3][0])
		m.OnCarrierIdle(fr[3][1])
		m.OnAckSent(src, seq, fr[3][1])
		now = fr[3][1]
	}
	for i := 0; i < benchWarmup; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(benchWarmup + i)
	}
}
