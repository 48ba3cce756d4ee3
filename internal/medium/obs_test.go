package medium

import (
	"math"
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

// TestTxFrameInvertsTxRecord is the quickcheck for the tx record's
// payload layout: for random valid frames of every type — the header
// fields' extremes and the absent assigned backoff (-1) included —
// TxFrame(TxRecord(f)) must return f, and the record must carry the
// transmission's start and duration.
func TestTxFrameInvertsTxRecord(t *testing.T) {
	src := rng.New(7)
	backoffs := []int32{-1, 0, math.MaxInt32, math.MinInt32}
	attempts := []uint8{1, math.MaxUint8}
	payloads := []int{0, 1, math.MaxInt32}
	for i := 0; i < 2000; i++ {
		f := frame.Frame{
			Type:            frame.Type(1 + src.Intn(4)),
			Src:             frame.NodeID(src.Intn(5000)),
			Seq:             uint32(src.Uint64()),
			AssignedBackoff: int32(src.Uint64()),
			Duration:        sim.Time(src.Intn(int(10 * sim.Second))),
		}
		f.Dst = f.Src + 1 + frame.NodeID(src.Intn(100))
		if src.Intn(2) == 0 {
			f.AssignedBackoff = backoffs[src.Intn(len(backoffs))]
		}
		switch f.Type {
		case frame.RTS:
			f.Attempt = uint8(1 + src.Intn(math.MaxUint8))
			if src.Intn(2) == 0 {
				f.Attempt = attempts[src.Intn(len(attempts))]
			}
		case frame.Data:
			f.PayloadBytes = src.Intn(1 << 16)
			if src.Intn(2) == 0 {
				f.PayloadBytes = payloads[src.Intn(len(payloads))]
			}
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("generator drew an invalid frame %+v: %v", f, err)
		}
		start := sim.Time(src.Intn(int(100 * sim.Second)))
		end := start + sim.Time(1+src.Intn(int(sim.Second)))
		r := TxRecord(f, start, end)
		if got := TxFrame(r); got != f {
			t.Fatalf("TxFrame(TxRecord(%+v)) = %+v", f, got)
		}
		if r.Time != start || sim.Time(r.A) != end-start {
			t.Fatalf("%+v: record time %v airtime %v, want %v and %v", f, r.Time, sim.Time(r.A), start, end-start)
		}
	}
}
