package sim

import "fmt"

// Keyed event ordering.
//
// The serial kernel orders same-instant events by a per-scheduler
// sequence number — FIFO in scheduling order. That order is an artifact
// of execution history: split the nodes across two schedulers and the
// interleaving (hence the sequence numbers, hence the tie-break) comes
// out different. The sharded kernel therefore switches the tie-break to
// an explicit 64-bit *key* that is a pure function of model identity,
// never of execution order:
//
//	owner key  = 1<<63 | owner<<40 | counter     (local events)
//	fan key    =         tx<<40 | frame<<20 | obs (cross-node events)
//
// An owner key names the node whose callback scheduled the event plus
// that node's private scheduling counter; a fan key names a
// (transmitter, frame index, observer) triple, which channel model v3
// derives from its counter-RNG identities. Both are invariant under any
// partition of nodes onto schedulers: a node fires its own events in
// the same relative order everywhere, and its counter therefore
// advances identically — so the total (when, key) order, and with it
// every simulation result, is independent of the shard count. Fan keys
// clear bit 63, so at equal instants physical arrivals order before
// local timers; within each class the order follows the encoded IDs.
//
// Keys replace the seq field inside queue entries, so the event queue
// orders keyed schedulers with the unchanged (when, seq) comparison.

const (
	// keyOwnerBit distinguishes owner keys (set) from fan keys (clear).
	keyOwnerBit = uint64(1) << 63
	// keyOwnerShift positions the owner/transmitter ID field.
	keyOwnerShift = 40
	// keyCtrBits is the per-owner counter width: 2^40 events per owner
	// before overflow, far beyond any run length.
	keyCtrBits = 40
	// keyObsBits is the fan-key observer field width.
	keyObsBits = 20

	// MaxKeyedOwner is the largest owner (node) ID addressable by both
	// key forms: owners appear in the 20-bit observer field of fan keys.
	MaxKeyedOwner = 1<<keyObsBits - 1
	// MaxFanFrame is the largest per-transmitter frame index a fan key
	// can carry.
	MaxFanFrame = 1<<keyObsBits - 1
)

// FanKey encodes the deterministic key of a cross-node event: the
// transmitting node, its per-transmitter frame index, and the observing
// node. The triple is unique per (transmission, observer), so two fan
// keys can only collide when they describe the same physical link event
// — which never coexists with itself at one instant.
func FanKey(tx, frameIdx, obs uint64) uint64 {
	if tx > MaxKeyedOwner || frameIdx > MaxFanFrame || obs > MaxKeyedOwner {
		panic(fmt.Sprintf("sim: fan key field overflow (tx=%d frame=%d obs=%d)", tx, frameIdx, obs))
	}
	return tx<<keyOwnerShift | frameIdx<<keyObsBits | obs
}

// ownerOfKey decodes the owner (node) a key attributes the event to:
// the scheduling owner for owner keys, the observer for fan keys.
func ownerOfKey(k uint64) int {
	if k&keyOwnerBit != 0 {
		return int(k >> keyOwnerShift &^ (keyOwnerBit >> keyOwnerShift))
	}
	return int(k & MaxKeyedOwner)
}

// EnableKeyed switches the scheduler to keyed event ordering for owners
// node IDs 0..owners-1. It must be called before any event is
// scheduled. In keyed mode, At/AtArg/After/AfterArg derive each event's
// key from the current owner context — the owner decoded from the event
// being fired, or the last SetOwner during setup — and AtKeyedArg
// schedules with an explicit (fan) key.
func (s *Scheduler) EnableKeyed(owners int) {
	if s.live > 0 || s.fired > 0 {
		panic("sim: EnableKeyed after events were scheduled")
	}
	if owners <= 0 || owners > MaxKeyedOwner+1 {
		panic(fmt.Sprintf("sim: EnableKeyed owner count %d out of range", owners))
	}
	s.keyed = true
	s.ownerCtr = make([]uint64, owners)
}

// Keyed reports whether the scheduler orders events by explicit keys.
func (s *Scheduler) Keyed() bool { return s.keyed }

// SetOwner sets the owner context for subsequent implicit scheduling.
// The experiment runner brackets each node's setup (policy, MAC,
// traffic wiring) with SetOwner so every setup-time event carries that
// node's key; during the run the context tracks the firing event's
// decoded owner automatically.
func (s *Scheduler) SetOwner(id int) {
	if !s.keyed {
		panic("sim: SetOwner on a non-keyed scheduler")
	}
	if id < 0 || id >= len(s.ownerCtr) {
		panic(fmt.Sprintf("sim: SetOwner(%d) outside [0,%d)", id, len(s.ownerCtr)))
	}
	s.curOwner = id
}

// nextOwnerKey issues the next implicit key for the current owner.
func (s *Scheduler) nextOwnerKey() uint64 {
	ctr := s.ownerCtr[s.curOwner]
	if ctr >= 1<<keyCtrBits {
		panic(fmt.Sprintf("sim: owner %d scheduling counter overflow", s.curOwner))
	}
	s.ownerCtr[s.curOwner] = ctr + 1
	return keyOwnerBit | uint64(s.curOwner)<<keyOwnerShift | ctr
}

// CurrentKey returns the key of the event currently firing on a keyed
// scheduler, and 0 between events (setup, or after the run). It is the
// tag barrier-merged side channels (sim.Fanin) attach to emissions: keys
// are unique per instant, so sorting tagged emissions by (when, key,
// per-shard order) reproduces the serial keyed emission order exactly.
func (s *Scheduler) CurrentKey() uint64 { return s.curKey }

// AtKeyedArg schedules fn(arg, when) at the absolute instant when with
// an explicit event key (normally a FanKey). The caller owns key
// uniqueness per instant; the medium's (tx, frame, obs) triples satisfy
// it structurally. Only valid on keyed schedulers.
func (s *Scheduler) AtKeyedArg(when Time, key uint64, fn func(arg any, when Time), arg any) EventRef {
	if !s.keyed {
		panic("sim: AtKeyedArg on a non-keyed scheduler")
	}
	if when < s.now {
		panic(fmt.Sprintf("sim: scheduling keyed event at %v before now %v", when, s.now))
	}
	s.ensureQueue()
	idx := s.alloc(when)
	ev := &s.slab[idx]
	ev.seq = key
	ev.afn = fn
	ev.arg = arg
	s.q.push(entry{when: when, seq: key, idx: idx, gen: ev.gen})
	s.live++
	return EventRef{s: s, idx: idx, gen: ev.gen}
}
