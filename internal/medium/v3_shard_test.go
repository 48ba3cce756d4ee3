package medium

import (
	"reflect"
	"testing"

	"dcfguard/internal/frame"
	"dcfguard/internal/phys"
	"dcfguard/internal/rng"
	"dcfguard/internal/sim"
)

// v3Tx is one scripted transmission.
type v3Tx struct {
	at       sim.Time
	src, dst frame.NodeID
}

// v3Script mixes isolated transmissions with ones that overlap across
// shards: two starting at one instant, one starting while another is on
// the air, and one starting exactly V3PropDelay after another, when
// that one's arrivals land.
var v3Script = []v3Tx{
	{1 * sim.Millisecond, 0, 1},
	{3 * sim.Millisecond, 3, 2},
	{5 * sim.Millisecond, 5, 4},
	{7 * sim.Millisecond, 2, 3},
	{9 * sim.Millisecond, 1, 0},
	{9 * sim.Millisecond, 4, 5},
	{9*sim.Millisecond + 100*sim.Microsecond, 3, 2},
	{11 * sim.Millisecond, 0, 1},
	{11*sim.Millisecond + V3PropDelay, 5, 4},
}

// keyRecorder is a recorder that also notes, at every callback, the key
// of the event firing on its node's scheduler.
type keyRecorder struct {
	recorder
	sched *sim.Scheduler
	keys  []uint64
}

func (r *keyRecorder) CarrierBusy(now sim.Time) {
	r.keys = append(r.keys, r.sched.CurrentKey())
	r.recorder.CarrierBusy(now)
}

func (r *keyRecorder) CarrierIdle(now sim.Time) {
	r.keys = append(r.keys, r.sched.CurrentKey())
	r.recorder.CarrierIdle(now)
}

func (r *keyRecorder) FrameReceived(f frame.Frame, now sim.Time) {
	r.keys = append(r.keys, r.sched.CurrentKey())
	r.recorder.FrameReceived(f, now)
}

// v3Nodes is the node count of runV3Script's line.
const v3Nodes = 6

// runV3Script plays v3Script over six nodes 90 m apart on a line (each
// decodes its neighbours up to two hops away and senses the rest) on
// channel model v3, either on one keyed scheduler (shards = 1) or on a
// ShardGroup of that many keyed schedulers whose barrier exchange is
// ExchangeShardMessages, with node i on shard i % shards. It returns
// every node's listener.
func runV3Script(t *testing.T, shards int) []*keyRecorder {
	t.Helper()
	scheds := make([]*sim.Scheduler, shards)
	for i := range scheds {
		scheds[i] = &sim.Scheduler{}
		scheds[i].EnableKeyed(v3Nodes)
	}
	cfg := deterministicConfig()
	cfg.Channel = ChannelV3
	m := New(scheds[0], cfg, rng.New(1))
	shardOf := func(id frame.NodeID) int { return int(id) % shards }
	recs := make([]*keyRecorder, v3Nodes)
	for i := range recs {
		recs[i] = &keyRecorder{sched: scheds[shardOf(frame.NodeID(i))]}
		m.Attach(frame.NodeID(i), phys.Point{X: 90 * float64(i)}, detRadio(), recs[i])
	}
	if shards > 1 {
		m.ConfigureShards(scheds, shardOf)
	}
	for _, tx := range v3Script {
		s := scheds[shardOf(tx.src)]
		s.SetOwner(int(tx.src))
		s.At(tx.at, func() { m.Transmit(tx.src, testRTS(tx.src, tx.dst)) })
	}
	const until = 20 * sim.Millisecond
	if shards > 1 {
		g := sim.NewShardGroup(scheds, V3PropDelay)
		g.Exchange = m.ExchangeShardMessages
		g.Run(until)
	} else {
		scheds[0].Run(until)
	}
	return recs
}

// v3Explains reports whether scripted transmission i explains event e at
// node id: every arrival lands V3PropDelay after the transmitter's
// instant, so an observer's carrier goes busy δ after a transmission
// starts and idle δ after it ends, and decodes the frame δ after its
// end; only the transmitter's own carrier follows its transmission with
// no delay.
func v3Explains(i int, id frame.NodeID, e event) bool {
	tx := v3Script[i]
	rts := testRTS(tx.src, tx.dst)
	start, end := tx.at, tx.at+rts.Airtime(detRadio().BitRate)
	if tx.src != id {
		start, end = start+V3PropDelay, end+V3PropDelay
	}
	switch {
	case e.kind == "busy" && e.at == start,
		e.kind == "idle" && e.at == end,
		e.kind == "frame" && tx.src != id && e.f == rts && e.at == end:
		return true
	}
	return false
}

// TestV3ShardedListenersMatchKeyedSerial: a transmit script played on
// one keyed v3 scheduler and on a 2-shard ShardGroup exchanging through
// ExchangeShardMessages gives every listener the same sequence of
// (time, callback, frame), and every event is δ = V3PropDelay after a
// scripted transmission (see v3Explains).
func TestV3ShardedListenersMatchKeyedSerial(t *testing.T) {
	serial := runV3Script(t, 1)
	sharded := runV3Script(t, 2)
	for id := range serial {
		if !reflect.DeepEqual(serial[id].events, sharded[id].events) {
			t.Errorf("node %d: serial and 2-shard listener logs differ\nserial:  %v\nsharded: %v", id, serial[id].events, sharded[id].events)
		}
	}

	frames := 0
	for id, r := range serial {
		for _, e := range r.events {
			explained := false
			for i := range v3Script {
				explained = explained || v3Explains(i, frame.NodeID(id), e)
			}
			if !explained {
				t.Errorf("node %d: %s at %v (frame %+v) is not δ = %v after any transmission", id, e.kind, e.at, e.f, V3PropDelay)
			}
			if e.kind == "frame" {
				frames++
			}
		}
	}
	// The four isolated transmissions alone are decoded 12 times (by
	// every node within 250 m of the sender); the overlapping ones
	// collide at some observers.
	if frames < 12 {
		t.Errorf("%d frames decoded in all, want at least 12", frames)
	}
}

// TestV3FanRunKeys: a fan run is one queue entry for many observers, yet
// every observer's callbacks must run under that observer's own fan key
// FanKey(tx, frame, obs), serially and at 2 and 3 shards — the key is
// what owner counters and the barrier fan-in read. The transmitter's
// own carrier events run under its owner keys (bit 63 set).
func TestV3FanRunKeys(t *testing.T) {
	// frameIdx[i] is scripted transmission i's per-transmitter frame
	// index (the script is in time order).
	frameIdx := make([]uint64, len(v3Script))
	var sent [v3Nodes]uint64
	for i, tx := range v3Script {
		frameIdx[i] = sent[tx.src]
		sent[tx.src]++
	}
	for _, shards := range []int{1, 2, 3} {
		for id, r := range runV3Script(t, shards) {
			obs := frame.NodeID(id)
			for j, e := range r.events {
				key, ok := r.keys[j], false
				for i, tx := range v3Script {
					if !v3Explains(i, obs, e) {
						continue
					}
					if tx.src == obs {
						ok = key >= 1<<63
					} else {
						ok = key == sim.FanKey(uint64(tx.src), frameIdx[i], uint64(obs))
					}
					if ok {
						break
					}
				}
				if !ok {
					t.Errorf("%d shards: node %d: %s at %v ran under key %#x, not a fan key of a transmission it observed", shards, id, e.kind, e.at, key)
				}
			}
		}
	}
}
