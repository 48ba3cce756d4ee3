package mac

import (
	"fmt"

	"dcfguard/internal/frame"
	"dcfguard/internal/medium"
	"dcfguard/internal/sim"
	"dcfguard/internal/stats"
)

// ReceiverHook observes and steers the receiver side of DCF exchanges.
// The paper's detection, correction and diagnosis logic (internal/core)
// implements this interface; plain 802.11 receivers use a nil hook.
type ReceiverHook interface {
	// OnRTS is called when an RTS addressed to this node is decoded and
	// the node is able to respond. start/end delimit the RTS airtime.
	// respond=false suppresses the CTS (used by the diagnosis scheme's
	// blocking mode and by attempt-number verification drops).
	// assigned is the backoff advertised in the CTS; negative means no
	// field (plain 802.11).
	OnRTS(rts frame.Frame, start, end sim.Time) (respond bool, assigned int)
	// OnData is called when a DATA frame addressed to this node is
	// decoded (duplicates included). start/end delimit its airtime.
	// ack=false suppresses both the ACK and the delivery (the blocking
	// response in basic-access mode); assigned is advertised in the
	// ACK, negative meaning no field.
	OnData(data frame.Frame, start, end sim.Time) (ack bool, assigned int)
	// OnAckSent is called when this node finishes transmitting an ACK
	// to `to` for sequence seq. The paper's observation window for the
	// next packet from `to` starts here.
	OnAckSent(to frame.NodeID, seq uint32, end sim.Time)
	// OnCarrierBusy/OnCarrierIdle mirror the node's carrier-sense
	// transitions so the hook can count idle slots.
	OnCarrierBusy(now sim.Time)
	OnCarrierIdle(now sim.Time)
}

// Callbacks are optional hooks for traffic generators. Nil fields are
// skipped. Per-packet outcomes are not callbacks: they are the node's
// own tallies (Counters, Delay) and its CatMACState records.
type Callbacks struct {
	// OnQueueSpace fires at the sender whenever the interface queue
	// gains room (a packet finished or was dropped). Backlogged sources
	// refill from here.
	OnQueueSpace func(now sim.Time)
}

// senderState enumerates the transmit-side DCF states.
type senderState int

const (
	// stateIdle: nothing queued.
	stateIdle senderState = iota + 1
	// stateContend: counting down backoff (possibly frozen).
	stateContend
	// stateTxRTS: RTS on the air.
	stateTxRTS
	// stateWaitCTS: RTS sent, CTS awaited.
	stateWaitCTS
	// stateSIFSData: CTS received, DATA scheduled after SIFS.
	stateSIFSData
	// stateTxData: DATA on the air.
	stateTxData
	// stateWaitAck: DATA sent, ACK awaited.
	stateWaitAck
)

func (s senderState) String() string {
	switch s {
	case stateIdle:
		return "idle"
	case stateContend:
		return "contend"
	case stateTxRTS:
		return "txRTS"
	case stateWaitCTS:
		return "waitCTS"
	case stateSIFSData:
		return "sifsData"
	case stateTxData:
		return "txData"
	case stateWaitAck:
		return "waitAck"
	default:
		return fmt.Sprintf("senderState(%d)", int(s))
	}
}

// packet is one queued MSDU.
type packet struct {
	dst        frame.NodeID
	seq        uint32
	bytes      int
	enqueuedAt sim.Time
}

// Node is one 802.11 DCF station: a transmit queue with the sender state
// machine, and the receiver responder. It implements medium.Listener.
//
// Field layout: the channel-view and backoff fields touched by every
// carrier transition are grouped at the top of the struct so they share
// cache lines with each other (and with the scheduler/medium pointers
// every callback dereferences) rather than with cold configuration.
// Nodes themselves are best allocated contiguously via Arena — the
// experiment runner does — so a sweep over stations walks memory
// linearly instead of chasing individually-boxed structs.
type Node struct {
	id    frame.NodeID
	sched *sim.Scheduler
	med   *medium.Medium

	// Channel view + backoff engine (hot: touched on every carrier
	// transition and countdown event).
	physBusy   bool
	counting   bool // countdown currently running
	committed  bool // countdown expired this instant; transmit regardless of CS
	eifsNext   bool // next resume waits EIFS (corrupted reception seen)
	state      senderState
	remaining  int // backoff slots left to count
	navUntil   sim.Time
	lastBusyAt sim.Time // most recent carrier busy transition
	resumeWait sim.Time // the interframe space the current countdown waited
	idleStart  sim.Time
	// cachedBitRate memoises med.Radio(id).BitRate — immutable once the
	// node is attached, but looked up on every RTS/DATA/EIFS airtime
	// computation. Zero until the first bitRate() call (the radio is not
	// attached yet when NewNode runs).
	cachedBitRate int64

	params Params
	policy BackoffPolicy
	hook   ReceiverHook
	cb     Callbacks

	// Sender side.
	queue     []packet
	nextSeq   uint32
	attempt   int
	doneTimer *sim.Timer // fires when countdown reaches zero
	navTimer  *sim.Timer // re-evaluates the channel when the NAV expires
	respTimer *sim.Timer // CTS/ACK timeout

	// Receiver side.
	rx map[frame.NodeID]rxFlow

	// sendDataFn is n.sendData bound once, so arming the post-CTS SIFS
	// wait does not allocate a fresh method value per exchange.
	sendDataFn func()
	// freeResponses pools the SIFS-deferred CTS/ACK response records.
	freeResponses []*pendingTx

	// Counters.
	txSuccess, txDrop, rxDeliver uint64
	// delay tallies the MAC delay (enqueue → ACK) of every acknowledged
	// packet, in milliseconds.
	delay stats.Welford

	// obs holds the pre-resolved observability handles (see obs.go);
	// the zero value means instrumentation is off.
	obs nodeObs
}

// rxFlow is the receiver's state for one sender: the highest delivered
// sequence number (the duplicate filter) and the payload bytes delivered.
type rxFlow struct {
	lastSeq uint32
	bytes   int64
}

// pendingTx is a SIFS-deferred response (CTS or ACK) waiting to go on
// the air. Records are pooled per node: one is taken when the response
// is armed and recycled when it fires, so steady-state responses
// allocate nothing. Responses are never cancelled, which is what makes
// the single-owner recycle safe.
type pendingTx struct {
	n   *Node
	f   frame.Frame
	ack bool // fire OnAckSent after an ACK transmit
}

// sendResponseEvent is the pooled-event trampoline transmitting a
// deferred CTS/ACK response.
func sendResponseEvent(arg any, _ sim.Time) {
	p := arg.(*pendingTx)
	n, f, isAck := p.n, p.f, p.ack
	*p = pendingTx{}
	n.freeResponses = append(n.freeResponses, p)
	if n.med.Transmitting(n.id) {
		return // half-duplex conflict with our own exchange; the sender retries
	}
	end := n.med.Transmit(n.id, f)
	if isAck && n.hook != nil {
		n.hook.OnAckSent(f.Dst, f.Seq, end)
	}
}

// scheduleResponse arms f to be transmitted one SIFS from now.
func (n *Node) scheduleResponse(f frame.Frame, isAck bool) {
	var p *pendingTx
	if k := len(n.freeResponses); k > 0 {
		p = n.freeResponses[k-1]
		n.freeResponses[k-1] = nil
		n.freeResponses = n.freeResponses[:k-1]
	} else {
		p = &pendingTx{}
	}
	*p = pendingTx{n: n, f: f, ack: isAck}
	n.sched.AfterArg(n.params.SIFS, sendResponseEvent, p)
}

// navProbeEvent re-checks an overheard-RTS NAV one CTS turnaround after
// the RTS ended (802.11 §9.2.5.4). The RTS end instant is recovered from
// the fire time, so the event needs no capturing closure.
func navProbeEvent(arg any, when sim.Time) {
	n := arg.(*Node)
	bitRate := n.bitRate()
	probe := n.params.SIFS + frame.Airtime(frame.CTSBytes, bitRate) + 2*n.params.SlotTime
	n.maybeResetNAV(when - probe)
}

var (
	_ medium.Listener           = (*Node)(nil)
	_ medium.CorruptionListener = (*Node)(nil)
)

// NewNode builds a station and registers it on the medium at pos with
// the radio configured in the medium's Attach call (the caller attaches).
func NewNode(id frame.NodeID, params Params, sched *sim.Scheduler, med *medium.Medium,
	policy BackoffPolicy, hook ReceiverHook, cb Callbacks) *Node {
	return NewNodeIn(nil, id, params, sched, med, policy, hook, cb)
}

// NewNodeIn is NewNode with the Node allocated from a (nil-safe) Arena,
// so a run's stations occupy one contiguous block.
func NewNodeIn(a *Arena, id frame.NodeID, params Params, sched *sim.Scheduler, med *medium.Medium,
	policy BackoffPolicy, hook ReceiverHook, cb Callbacks) *Node {
	if err := params.Validate(); err != nil {
		panic(fmt.Sprintf("mac: node %d: %v", id, err))
	}
	if policy == nil {
		panic(fmt.Sprintf("mac: node %d: nil policy", id))
	}
	n := a.take()
	*n = Node{
		id:     id,
		params: params,
		sched:  sched,
		med:    med,
		policy: policy,
		hook:   hook,
		cb:     cb,
		state:  stateIdle,
		rx:     make(map[frame.NodeID]rxFlow),
	}
	n.doneTimer = sim.NewTimer(sched, n.backoffDone)
	n.navTimer = sim.NewTimer(sched, n.navExpired)
	n.respTimer = sim.NewTimer(sched, n.responseTimeout)
	n.sendDataFn = n.sendData
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() frame.NodeID { return n.id }

// bitRate returns the node's radio bit rate, resolved from the medium
// once and memoised (phys.Radio.Validate rejects BitRate <= 0, so zero
// safely means "not yet resolved").
func (n *Node) bitRate() int64 {
	if n.cachedBitRate == 0 {
		n.cachedBitRate = n.med.Radio(n.id).BitRate
	}
	return n.cachedBitRate
}

// Counters returns (packets acknowledged as sender, packets dropped as
// sender, packets delivered as receiver).
func (n *Node) Counters() (success, drop, deliver uint64) {
	return n.txSuccess, n.txDrop, n.rxDeliver
}

// AddDelivered adds the payload bytes this node delivered as receiver,
// per sender, into bytes.
func (n *Node) AddDelivered(bytes map[frame.NodeID]int64) {
	for src, f := range n.rx {
		bytes[src] += f.bytes
	}
}

// Delay returns the MAC delay (enqueue → ACK, in milliseconds) of the
// packets this node sent and had acknowledged.
func (n *Node) Delay() stats.Welford { return n.delay }

// QueueLen returns the current interface-queue depth.
func (n *Node) QueueLen() int { return len(n.queue) }

// SetQueueSpaceCallback installs the OnQueueSpace callback after
// construction. Traffic sources need the node to exist before they can
// provide their refill function, so this seam breaks that cycle.
func (n *Node) SetQueueSpaceCallback(fn func(now sim.Time)) { n.cb.OnQueueSpace = fn }

// Enqueue appends a packet for dst. It reports false when the queue is
// full. Enqueueing starts contention if the sender is idle.
func (n *Node) Enqueue(dst frame.NodeID, payloadBytes int) bool {
	if dst == n.id {
		panic(fmt.Sprintf("mac: node %d enqueue to self", n.id))
	}
	if len(n.queue) >= n.params.QueueCap {
		return false
	}
	n.nextSeq++
	n.queue = append(n.queue, packet{
		dst: dst, seq: n.nextSeq, bytes: payloadBytes, enqueuedAt: n.sched.Now(),
	})
	n.noteQueueLen()
	if n.state == stateIdle {
		n.startContention()
	}
	return true
}

// ---- channel view ----------------------------------------------------

func (n *Node) channelClear() bool {
	return !n.physBusy && n.sched.Now() >= n.navUntil
}

// CarrierBusy implements medium.Listener.
func (n *Node) CarrierBusy(now sim.Time) {
	n.physBusy = true
	n.lastBusyAt = now
	if n.hook != nil {
		n.hook.OnCarrierBusy(now)
	}
	n.freezeCountdown(now)
}

// CarrierIdle implements medium.Listener.
func (n *Node) CarrierIdle(now sim.Time) {
	n.physBusy = false
	if n.hook != nil {
		n.hook.OnCarrierIdle(now)
	}
	if n.state == stateContend {
		n.resumeCountdown()
	}
}

func (n *Node) setNAV(until sim.Time) {
	if until <= n.navUntil {
		return
	}
	n.navUntil = until
	n.freezeCountdown(n.sched.Now())
	n.navTimer.ResetAt(until)
}

func (n *Node) navExpired() {
	if n.state == stateContend {
		n.resumeCountdown()
	}
}

// maybeResetNAV clears the NAV set by an RTS overheard at rtsEnd when no
// carrier activity followed it (the granted exchange never started).
func (n *Node) maybeResetNAV(rtsEnd sim.Time) {
	if n.lastBusyAt > rtsEnd || n.physBusy {
		return
	}
	if n.navUntil > n.sched.Now() {
		n.navUntil = n.sched.Now()
		n.navTimer.Stop()
		if n.state == stateContend {
			n.resumeCountdown()
		}
	}
}

// ---- backoff engine ----------------------------------------------------

func (n *Node) startContention() {
	if len(n.queue) == 0 {
		n.setState(stateIdle)
		return
	}
	head := n.queue[0]
	n.setState(stateContend)
	n.attempt = 1
	n.remaining = clampSlots(n.policy.InitialBackoff(head.dst, n.params.CW(1)))
	n.counting = false
	n.resumeCountdown()
}

func (n *Node) retryContention() {
	head := n.queue[0]
	n.setState(stateContend)
	n.remaining = clampSlots(n.policy.RetryBackoff(head.dst, n.attempt, n.params.CW(n.attempt)))
	n.counting = false
	n.resumeCountdown()
}

func clampSlots(s int) int {
	if s < 0 {
		return 0
	}
	return s
}

func (n *Node) resumeCountdown() {
	if n.counting || n.state != stateContend || !n.channelClear() {
		return
	}
	n.counting = true
	n.idleStart = n.sched.Now()
	n.resumeWait = n.params.DIFS()
	if n.params.UseEIFS && n.eifsNext {
		n.resumeWait = n.params.EIFS(n.bitRate())
		n.eifsNext = false
	}
	n.doneTimer.Reset(n.resumeWait + sim.Time(n.remaining)*n.params.SlotTime)
}

func (n *Node) freezeCountdown(now sim.Time) {
	if !n.counting {
		return
	}
	// If the countdown expires at this very instant, the station has
	// already committed to transmitting in this slot: a transmission
	// starting simultaneously (the cause of this busy transition) must
	// collide with ours, not silently defer it.
	if n.doneTimer.Armed() && n.doneTimer.Deadline() == now {
		n.committed = true
		return
	}
	n.counting = false
	n.doneTimer.Stop()
	elapsed := now - n.idleStart - n.resumeWait
	if elapsed > 0 {
		consumed := int(elapsed / n.params.SlotTime)
		if consumed > n.remaining {
			consumed = n.remaining
		}
		n.remaining -= consumed
	}
}

func (n *Node) backoffDone() {
	if n.state != stateContend {
		panic(fmt.Sprintf("mac: node %d backoff fired in state %v", n.id, n.state))
	}
	if !n.channelClear() && !n.committed {
		// A NAV set exactly at the expiry instant; refreeze and wait.
		n.counting = false
		n.remaining = 0
		return
	}
	n.counting = false
	n.committed = false
	n.remaining = 0
	if n.params.BasicAccess {
		n.sendDataDirect()
	} else {
		n.sendRTS()
	}
}

// ---- sender side -------------------------------------------------------

func (n *Node) sendRTS() {
	head := n.queue[0]
	bitRate := n.bitRate()
	ctsAir := frame.Airtime(frame.CTSBytes, bitRate)
	dataAir := frame.Airtime(frame.DataOverhead+head.bytes, bitRate)
	ackAir := frame.Airtime(frame.AckBytes, bitRate)
	reserve := 3*n.params.SIFS + ctsAir + dataAir + ackAir

	attemptField := n.policy.ReportAttempt(n.attempt)
	if attemptField < 1 {
		attemptField = 1
	} else if attemptField > 255 {
		attemptField = 255
	}
	rts := frame.Frame{
		Type:            frame.RTS,
		Src:             n.id,
		Dst:             head.dst,
		Seq:             head.seq,
		Attempt:         uint8(attemptField),
		AssignedBackoff: -1,
		Duration:        reserve,
	}
	n.setState(stateTxRTS)
	end := n.med.Transmit(n.id, rts)
	// CTS timeout: SIFS + CTS airtime after the RTS ends, plus two
	// slots of slack (no propagation delay in the model).
	n.setState(stateWaitCTS)
	n.respTimer.ResetAt(end + n.params.SIFS + ctsAir + 2*n.params.SlotTime)
}

// sendDataDirect transmits the head packet without an RTS/CTS handshake
// (basic access). The DATA frame carries the attempt number the
// receiver-side estimator needs.
func (n *Node) sendDataDirect() {
	head := n.queue[0]
	bitRate := n.bitRate()
	ackAir := frame.Airtime(frame.AckBytes, bitRate)
	attemptField := n.policy.ReportAttempt(n.attempt)
	if attemptField < 1 {
		attemptField = 1
	} else if attemptField > 255 {
		attemptField = 255
	}
	data := frame.Frame{
		Type:         frame.Data,
		Src:          n.id,
		Dst:          head.dst,
		Seq:          head.seq,
		Attempt:      uint8(attemptField),
		Duration:     n.params.SIFS + ackAir,
		PayloadBytes: head.bytes,
	}
	n.setState(stateTxData)
	end := n.med.Transmit(n.id, data)
	n.setState(stateWaitAck)
	n.respTimer.ResetAt(end + n.params.SIFS + ackAir + 2*n.params.SlotTime)
}

func (n *Node) sendData() {
	head := n.queue[0]
	bitRate := n.bitRate()
	ackAir := frame.Airtime(frame.AckBytes, bitRate)
	data := frame.Frame{
		Type:         frame.Data,
		Src:          n.id,
		Dst:          head.dst,
		Seq:          head.seq,
		Duration:     n.params.SIFS + ackAir,
		PayloadBytes: head.bytes,
	}
	n.setState(stateTxData)
	end := n.med.Transmit(n.id, data)
	n.setState(stateWaitAck)
	n.respTimer.ResetAt(end + n.params.SIFS + ackAir + 2*n.params.SlotTime)
}

func (n *Node) responseTimeout() {
	switch n.state {
	case stateWaitCTS, stateWaitAck:
	default:
		panic(fmt.Sprintf("mac: node %d response timeout in state %v", n.id, n.state))
	}
	n.attempt++
	if n.attempt > n.params.RetryLimit {
		n.dequeueHead()
		n.txDrop++
		n.obs.txDrop.Inc()
		n.afterExchange()
		return
	}
	n.retryContention()
}

func (n *Node) onCTS(cts frame.Frame) {
	if n.state != stateWaitCTS || len(n.queue) == 0 ||
		cts.Src != n.queue[0].dst || cts.Seq != n.queue[0].seq {
		return // stale or foreign CTS
	}
	n.respTimer.Stop()
	if cts.AssignedBackoff >= 0 {
		n.policy.OnAssigned(cts.Src, cts.Seq, int(cts.AssignedBackoff), false)
		n.traceAssign("cts-assign", cts.Src, cts.Seq, int(cts.AssignedBackoff))
	}
	n.setState(stateSIFSData)
	n.sched.After(n.params.SIFS, n.sendDataFn)
}

func (n *Node) onAck(ack frame.Frame) {
	if n.state != stateWaitAck || len(n.queue) == 0 ||
		ack.Src != n.queue[0].dst || ack.Seq != n.queue[0].seq {
		return
	}
	n.respTimer.Stop()
	head := n.queue[0]
	if ack.AssignedBackoff >= 0 {
		n.policy.OnAssigned(ack.Src, ack.Seq, int(ack.AssignedBackoff), true)
		n.traceAssign("ack-assign", ack.Src, ack.Seq, int(ack.AssignedBackoff))
	}
	n.dequeueHead()
	n.txSuccess++
	n.obs.txSuccess.Inc()
	n.obs.attempts.Observe(float64(n.attempt))
	n.delay.Add((n.sched.Now() - head.enqueuedAt).Seconds() * 1000)
	n.afterExchange()
}

func (n *Node) dequeueHead() {
	copy(n.queue, n.queue[1:])
	n.queue = n.queue[:len(n.queue)-1]
	n.noteQueueLen()
}

func (n *Node) afterExchange() {
	if n.cb.OnQueueSpace != nil {
		n.cb.OnQueueSpace(n.sched.Now())
	}
	n.startContention()
}

// ---- receiver side -----------------------------------------------------

// FrameCorrupted implements medium.CorruptionListener: arm the EIFS
// deferral for the next countdown resume.
func (n *Node) FrameCorrupted(sim.Time) {
	if n.params.UseEIFS {
		n.eifsNext = true
	}
}

// FrameReceived implements medium.Listener.
func (n *Node) FrameReceived(f frame.Frame, now sim.Time) {
	n.eifsNext = false // a clean reception re-synchronises the station
	if f.Dst != n.id {
		// Overheard frame: virtual carrier sense. The reservation in
		// Duration starts when the frame ends (= now).
		if f.Duration > 0 {
			n.setNAV(now + f.Duration)
			if f.Type == frame.RTS {
				// 802.11 §9.2.5.4 NAV-reset rule: if the channel stays
				// idle for a CTS turnaround after an overheard RTS, the
				// reservation never materialised — release the NAV.
				bitRate := n.bitRate()
				probe := n.params.SIFS + frame.Airtime(frame.CTSBytes, bitRate) + 2*n.params.SlotTime
				n.sched.AfterArg(probe, navProbeEvent, n)
			}
		}
		return
	}
	switch f.Type {
	case frame.RTS:
		n.onRTS(f, now)
	case frame.CTS:
		n.onCTS(f)
	case frame.Data:
		n.onData(f, now)
	case frame.Ack:
		n.onAck(f)
	}
}

func (n *Node) onRTS(rts frame.Frame, end sim.Time) {
	// Respond only when not mid-exchange ourselves and our NAV is clear
	// (802.11 §9.2.5.7: an RTS received with an active NAV is ignored).
	if n.state != stateIdle && n.state != stateContend {
		return
	}
	if n.sched.Now() < n.navUntil {
		return
	}
	bitRate := n.bitRate()
	start := end - rts.Airtime(bitRate)
	respond, assigned := true, -1
	if n.hook != nil {
		respond, assigned = n.hook.OnRTS(rts, start, end)
	}
	if !respond {
		return
	}
	ctsAir := frame.Airtime(frame.CTSBytes, bitRate)
	cts := frame.Frame{
		Type:            frame.CTS,
		Src:             n.id,
		Dst:             rts.Src,
		Seq:             rts.Seq,
		AssignedBackoff: int32(assigned),
		Duration:        rts.Duration - n.params.SIFS - ctsAir,
	}
	if cts.Duration < 0 {
		cts.Duration = 0
	}
	n.scheduleResponse(cts, false)
}

func (n *Node) onData(data frame.Frame, end sim.Time) {
	ack, assigned := true, -1
	if n.hook != nil {
		start := end - data.Airtime(n.bitRate())
		ack, assigned = n.hook.OnData(data, start, end)
	}
	if !ack {
		return
	}
	if f, seen := n.rx[data.Src]; !seen || data.Seq > f.lastSeq {
		n.rx[data.Src] = rxFlow{lastSeq: data.Seq, bytes: f.bytes + int64(data.PayloadBytes)}
		n.rxDeliver++
		n.obs.rxDeliver.Inc()
	}
	ackFrame := frame.Frame{
		Type:            frame.Ack,
		Src:             n.id,
		Dst:             data.Src,
		Seq:             data.Seq,
		AssignedBackoff: int32(assigned),
		Duration:        0,
	}
	n.scheduleResponse(ackFrame, true)
}
