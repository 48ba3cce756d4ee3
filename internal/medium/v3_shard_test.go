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

// runV3Script plays v3Script over six nodes 90 m apart on a line (each
// decodes its neighbours up to two hops away and senses the rest) on
// channel model v3, either on one keyed scheduler (shards = 1) or on a
// ShardGroup of that many keyed schedulers whose barrier exchange is
// ExchangeShardMessages, with node i on shard i % shards. It returns
// every listener's event log.
func runV3Script(t *testing.T, shards int) [][]event {
	t.Helper()
	const nodes = 6
	scheds := make([]*sim.Scheduler, shards)
	for i := range scheds {
		scheds[i] = &sim.Scheduler{}
		scheds[i].EnableKeyed(nodes)
	}
	cfg := deterministicConfig()
	cfg.Channel = ChannelV3
	m := New(scheds[0], cfg, rng.New(1))
	recs := make([]*recorder, nodes)
	for i := range recs {
		recs[i] = &recorder{}
		m.Attach(frame.NodeID(i), phys.Point{X: 90 * float64(i)}, detRadio(), recs[i])
	}
	shardOf := func(id frame.NodeID) int { return int(id) % shards }
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
	logs := make([][]event, nodes)
	for i, r := range recs {
		logs[i] = r.events
	}
	return logs
}

// TestV3ShardedListenersMatchKeyedSerial: a transmit script played on
// one keyed v3 scheduler and on a 2-shard ShardGroup exchanging through
// ExchangeShardMessages gives every listener the same sequence of
// (time, callback, frame). Every arrival lands V3PropDelay after the
// transmitter's instant: an observer's carrier goes busy δ after a
// transmission starts and idle δ after it ends, and decodes the frame
// δ after its end; only the transmitter's own carrier follows its
// transmission with no delay.
func TestV3ShardedListenersMatchKeyedSerial(t *testing.T) {
	serial := runV3Script(t, 1)
	sharded := runV3Script(t, 2)
	for id := range serial {
		if !reflect.DeepEqual(serial[id], sharded[id]) {
			t.Errorf("node %d: serial and 2-shard listener logs differ\nserial:  %v\nsharded: %v", id, serial[id], sharded[id])
		}
	}

	bitRate := detRadio().BitRate
	// causes reports whether some scripted transmission explains an
	// event at node id of the given kind at instant at.
	causes := func(id frame.NodeID, kind string, at sim.Time, f frame.Frame) bool {
		for _, tx := range v3Script {
			rts := testRTS(tx.src, tx.dst)
			start, end := tx.at, tx.at+rts.Airtime(bitRate)
			if tx.src != id {
				start, end = start+V3PropDelay, end+V3PropDelay
			}
			switch {
			case kind == "busy" && at == start,
				kind == "idle" && at == end,
				kind == "frame" && tx.src != id && f == rts && at == end:
				return true
			}
		}
		return false
	}
	frames := 0
	for id, log := range serial {
		for _, e := range log {
			if !causes(frame.NodeID(id), e.kind, e.at, e.f) {
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
