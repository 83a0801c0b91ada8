// Package mac simulates the wireless channel and a simplified 802.11-style
// CSMA/CA MAC at 1.6 Mb/s, the slice of ns-2's model the paper's protocols
// exercise.
//
// Model:
//
//   - Unit-disk propagation over a topology.Field; propagation delay is
//     negligible at 200 m scales and is modeled as zero. Positions may move
//     under the mobility layer: frame starts read the field's live neighbor
//     lists, unicast range checks (ACK, RTS/CTS decisions) consult live
//     positions, and each in-flight frame records its receivers at airtime
//     start so completions stay consistent when the topology shifts under
//     them.
//   - Carrier sense with DIFS + random slotted backoff; the contention
//     window doubles per retry up to cwMax.
//   - Half-duplex radios: a transmitting node cannot receive, and two
//     frames overlapping at a receiver corrupt each other there (no capture
//     effect). Senders cannot detect collisions.
//   - Unicast frames are acknowledged after SIFS and retried up to
//     retryLimit times; broadcast frames are sent once, unacknowledged —
//     exactly the asymmetry that makes reinforced (unicast) paths reliable
//     and floods lossy, which both diffusion variants depend on.
//   - Energy: the sender is charged transmit power for the frame airtime;
//     every powered-on node in range is charged receive power for it
//     (overhearing and collision victims included) — this is why density is
//     expensive and why smaller aggregation trees save energy.
//
// The implementation is allocation-free in steady state and degree-bounded
// per frame: transmissions are pooled and carry a touched-list of the
// receivers they were put in front of (capacity grows to the radio degree,
// never the field size). Every receiver holds its slot in that list, and
// every entry holds the position of its hearing in the receiver's audible
// list, so settling a reception needs no search of either. End of airtime
// settles the receivers in the order the frame's start recorded them, unless
// the field took a MoveNode during the airtime; only then does it re-walk
// the sender's live neighbor list. Receive energy is computed once per
// frame and charged to each receiver. Outbound frames are pooled,
// contention re-arms through a prebuilt per-node runner, and every delayed
// MAC step (airtime end, SIFS gaps, ACK timeouts) is dispatched through
// pooled sim.Runner records instead of fresh closures. Density
// sweeps spend most of their events here, so per-frame garbage directly
// caps simulator throughput, and constant-density scale sweeps depend on
// per-frame work tracking degree rather than population.
package mac

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Broadcast is the destination for broadcast frames.
const Broadcast topology.NodeID = -1

// The MAC's fixed 802.11 timing and sizes, scaled to the paper's 1.6 Mb/s
// radio.
const (
	slotTime   = 20 * time.Microsecond // backoff slot
	difs       = 50 * time.Microsecond // sense period before contending
	sifs       = 10 * time.Microsecond // gap before an ACK
	cwMin      = 32                    // initial contention window, slots
	cwMax      = 1024                  // maximum contention window, slots
	retryLimit = 3                     // unicast retransmission attempts after the first
	ackBytes   = 14                    // ACK frame size
	queueLimit = 64                    // per-node transmit queue capacity

	// rtsThreshold is the smallest unicast frame, in bytes, that uses the
	// RTS/CTS handshake when it is on: data frames and aggregates do, the
	// 36-byte control messages do not.
	rtsThreshold = 64
	rtsBytes     = 20 // RTS frame size
	ctsBytes     = 14 // CTS frame size
)

// Params holds the MAC's one varied setting. The zero value is the
// basic-access mode the paper's figures use.
type Params struct {
	// UseRTSCTS enables the 802.11 RTS/CTS exchange (with NAV-based
	// virtual carrier sense) for unicast frames of at least rtsThreshold
	// bytes.
	UseRTSCTS bool
}

// Frame is a link-layer payload: an opaque application message plus its wire
// size in bytes.
type Frame struct {
	Bytes   int
	Payload any
}

// Receiver is the callback a node registers to receive delivered frames.
// from identifies the link-layer neighbor (diffusion nodes distinguish
// neighbors but need no global addresses; the simulator reuses NodeID as the
// neighbor handle).
type Receiver func(from topology.NodeID, f Frame)

// DropReason classifies transmit failures reported to Stats.
type DropReason int

// Drop reasons.
const (
	// DropQueueFull counts frames rejected because the transmit queue was
	// at capacity.
	DropQueueFull DropReason = iota + 1
	// DropRetryExceeded counts unicast frames abandoned after retryLimit
	// unacknowledged attempts.
	DropRetryExceeded
	// DropNodeOff counts frames submitted by or queued at a node that
	// failed (was turned off).
	DropNodeOff
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue-full"
	case DropRetryExceeded:
		return "retry-exceeded"
	case DropNodeOff:
		return "node-off"
	default:
		return fmt.Sprintf("drop(%d)", int(r))
	}
}

// Stats aggregates link-layer counters across the run.
type Stats struct {
	DataTx      int // frames put on the air (excluding ACKs/RTS/CTS)
	AckTx       int
	RtsTx       int
	CtsTx       int
	Delivered   int                  // frame deliveries to a receiver callback (per receiver)
	Collisions  int                  // frame receptions corrupted by overlap or half-duplex
	Drops       [DropNodeOff + 1]int // frames dropped at the sender, by DropReason
	Retries     int
	Backoffs    int // backoff waits scheduled: initial contention, busy-medium re-sense, retry
	BytesOnAir  int64
	AcksMissing int // unicast attempts that timed out waiting for an ACK
	LinkLoss    int // receptions suppressed by an installed LinkFilter
}

// RxDropReason classifies, for a DropHook, why a reception the unit-disk
// channel would have delivered did not happen.
type RxDropReason int

// Reception drop reasons.
const (
	// RxCollision is a reception corrupted by frame overlap or a
	// half-duplex receiver that was itself transmitting.
	RxCollision RxDropReason = iota + 1
	// RxReceiverOff is a reception at a powered-off node.
	RxReceiverOff
	// RxSenderOff is a frame whose sender died mid-transmission.
	RxSenderOff
	// RxLinkLoss is a reception vetoed by the installed LinkFilter.
	RxLinkLoss
)

// String implements fmt.Stringer.
func (r RxDropReason) String() string {
	switch r {
	case RxCollision:
		return "collision"
	case RxReceiverOff:
		return "receiver-off"
	case RxSenderOff:
		return "sender-off"
	case RxLinkLoss:
		return "link-loss"
	default:
		return fmt.Sprintf("rxdrop(%d)", int(r))
	}
}

// DropHook observes lost receptions of data frames, once per (transmission,
// intended receiver) pair — broadcast frames report every in-range
// neighbor, unicast frames only the destination, and each retransmission
// reports again, mirroring what a sniffer beside the receiver would see.
// Hooks must not mutate MAC state. Tracing installs these to make loss
// debuggable from traces alone.
type DropHook func(from, to topology.NodeID, f Frame, reason RxDropReason)

// UnicastOutcome observes the final fate of each unicast attempt cycle:
// acked == true when the sender decoded an ACK, false when the frame was
// abandoned after retryLimit retransmissions. retries is the number of
// retransmissions used. Frames whose sender died mid-exchange report
// nothing — the crash wipes the sender's protocol state anyway. Hooks must
// not mutate MAC state; the diffusion repair layer installs these to feed
// link-quality estimation and control-plane retransmission.
type UnicastOutcome func(from, to topology.NodeID, f Frame, acked bool, retries int)

// LinkFilter decides whether a frame transmitted by from is successfully
// received at to. It is consulted exactly once per (transmission, in-range
// receiver) pair, at the start of the frame's airtime, so the decision is
// consistent between payload delivery and the sender's ACK bookkeeping.
// Returning false models the reception being lost to channel impairments
// (fading, bursts, a partition); the receiver's radio is still captured and
// charged for the airtime. Chaos injection installs these; nil means an
// ideal unit-disk channel.
type LinkFilter func(from, to topology.NodeID) bool

// Receiver-set flags. One rxEntry per touched receiver replaces the three
// field-sized bitsets transmissions used to carry: per-transmission memory
// and the per-frame reset walk are now bounded by radio degree, not by the
// population, which is what keeps constant-density scale rungs flat in N.
const (
	// rxHeard marks a receiver the frame was actually put in front of (on
	// and in range at airtime start); cleared as end-of-airtime consumes the
	// reception.
	rxHeard uint8 = 1 << iota
	// rxCorrupted marks a reception lost to frame overlap or a half-duplex
	// receiver that was itself transmitting.
	rxCorrupted
	// rxLost marks a reception vetoed by the installed LinkFilter.
	rxLost
)

// rxEntry records one receiver a transmission touched and the fate of its
// reception. pos is the index of the matching hearing in the receiver's
// audible list, kept current as that list swap-compacts, so settling the
// reception finds and removes its hearing without a search.
type rxEntry struct {
	id    topology.NodeID
	flags uint8
	pos   int32
}

// hearing is one frame audible at a node: the transmission and the slot of
// that node's own entry in its receiver set, so marking the reception
// corrupted is a direct write rather than a search. A node's audible list is
// unordered: removal swaps the last hearing into the gap, and every reader
// either marks all entries or reads only the length.
type hearing struct {
	tx   *transmission
	slot int32
}

// corrupt marks a reception lost to overlap, counting each reception once.
func (n *Network) corrupt(e *rxEntry) {
	if e.flags&rxCorrupted == 0 {
		e.flags |= rxCorrupted
		n.stats.Collisions++
	}
}

// Network simulates the shared medium for all nodes of a field.
type Network struct {
	kernel *sim.Kernel
	field  *topology.Field
	params Params
	rng    *rand.Rand
	// energy and nodes are struct-of-arrays slabs: one contiguous value
	// slice each, allocated once at field size and never grown, so interior
	// pointers (&n.nodes[i] held by sense runners and transmission
	// owner/peer fields, &n.energy[i] returned by Meter) stay valid for the
	// network's lifetime while per-node overhead drops to zero pointers.
	energy  []energy.Meter
	nodes   []nodeState
	stats   Stats
	filter  LinkFilter
	drop    DropHook
	outcome UnicastOutcome

	// rxSlot maps a node to its slot plus one in the receiver set of the
	// frame end()'s live-neighbor walk is settling, zero when absent. It is
	// all zeros between end() calls, so construction needs no fill loop;
	// movers is that walk's scratch for receivers that left range mid-frame.
	rxSlot []int32
	movers []int32

	// Free lists recycling the per-frame hot-path records.
	txFree    []*transmission
	frameFree []*outFrame
	callFree  []*pendingCall
}

type nodeState struct {
	id       topology.NodeID
	on       bool
	recv     Receiver
	queue    []*outFrame
	sending  bool // currently contending or transmitting
	txActive bool // physically on the air right now
	audible  []hearing
	cw       int
	navUntil time.Duration // virtual carrier sense from overheard RTS/CTS

	// sense is the node's prebuilt carrier-sense step; every contention
	// wait schedules this same runner record instead of capturing a fresh
	// closure per backoff.
	sense senseEvent
}

// senseEvent is a node's carrier-sense wake-up, dispatched as a permanent
// per-node sim.Runner.
type senseEvent struct {
	net *Network
	ns  *nodeState
}

// Run implements sim.Runner.
func (s *senseEvent) Run() { s.net.senseAndSend(s.ns) }

type outFrame struct {
	to       topology.NodeID
	frame    Frame
	retries  int
	released bool
}

type txKind int

const (
	txData txKind = iota
	txAck
	txRTS
	txCTS
)

// transmission is one frame in flight. Transmissions are pooled: the recv
// receiver set keeps its backing array across reuse, and the record doubles
// as the sim.Runner fired at end of airtime, so putting a frame on the air
// schedules its completion without a closure.
type transmission struct {
	net   *Network
	from  topology.NodeID
	to    topology.NodeID // Broadcast or unicast destination
	frame Frame
	kind  txKind
	nav   time.Duration // medium reservation advertised by RTS/CTS

	// recv is the receiver set: one entry per node this frame was put in
	// front of (on and in range at airtime start), appended in begin()'s
	// neighbor-scan order. The backing array is retained across pool
	// reuse, so it grows toward the field's maximum degree, never its size.
	// End-of-airtime consumes these entries rather than the live neighbor
	// set, so a node moving during the frame's airtime cannot strand an
	// audible entry or conjure a reception it never started. rxCorrupted
	// and rxLost record overlap and link-filter fates for the same IDs.
	recv []rxEntry
	// dst is the slot plus one of the unicast destination's entry in recv,
	// zero when it has none (broadcast, or destination off or out of range
	// at airtime start).
	dst int32
	// moves is the field's MoveNode count when begin() recorded recv.
	moves uint64

	// Completion context, interpreted per kind: owner is the transmitting
	// node, peer the unicast counterpart an ACK/CTS answers, of the queued
	// frame the exchange is carrying.
	owner *nodeState
	peer  *nodeState
	of    *outFrame
}

// destIntact reports whether the frame's reception at its unicast
// destination escaped overlap and link loss. A destination with no entry
// counts as intact; the callers' live range check decides it.
func (tx *transmission) destIntact() bool {
	return tx.dst == 0 || tx.recv[tx.dst-1].flags&(rxCorrupted|rxLost) == 0
}

// Run fires at end of airtime: clear the channel, deliver survivors, then
// continue the exchange the frame belongs to.
func (tx *transmission) Run() {
	n := tx.net
	tx.owner.txActive = false
	n.end(tx)
	switch tx.kind {
	case txData:
		n.finishData(tx)
	case txAck:
		n.finishAck(tx)
	case txRTS:
		n.finishRTS(tx)
	case txCTS:
		n.finishCTS(tx)
	}
	n.releaseTx(tx)
}

// callOp names the delayed MAC steps a pendingCall can dispatch — the typed
// callback table that replaces per-step closures.
type callOp uint8

const (
	opSendAck      callOp = iota // a=receiver answering, b=data sender
	opAckTimeout                 // a=sender waiting out the ACK window
	opSendCTS                    // a=RTS destination, b=RTS sender
	opDataAfterCTS               // a=sender releasing its data frame
)

// pendingCall is a pooled sim.Runner for SIFS gaps and timeout waits.
type pendingCall struct {
	net  *Network
	op   callOp
	a, b *nodeState
	of   *outFrame
}

// Run dispatches the recorded step. The record is recycled first so the
// step itself may schedule follow-up calls.
func (c *pendingCall) Run() {
	n := c.net
	op, a, b, of := c.op, c.a, c.b, c.of
	c.a, c.b, c.of = nil, nil, nil
	n.callFree = append(n.callFree, c)
	switch op {
	case opSendAck:
		n.sendAck(a, b, of)
	case opAckTimeout:
		n.ackTimeout(a, of)
	case opSendCTS:
		n.sendCTS(a, b, of)
	case opDataAfterCTS:
		if a.on && len(a.queue) > 0 && a.queue[0] == of {
			n.transmitData(a, of)
		}
	}
}

// call schedules the delayed step (op, a, b, of) after d.
func (n *Network) call(d time.Duration, op callOp, a, b *nodeState, of *outFrame) {
	var c *pendingCall
	if k := len(n.callFree); k > 0 {
		c = n.callFree[k-1]
		n.callFree = n.callFree[:k-1]
	} else {
		c = &pendingCall{net: n}
	}
	c.op, c.a, c.b, c.of = op, a, b, of
	n.kernel.ScheduleRunner(d, c)
}

// New creates a network over field with all nodes on. Receivers start nil;
// register them with SetReceiver before traffic flows.
func New(kernel *sim.Kernel, field *topology.Field, params Params) *Network {
	n := &Network{
		kernel: kernel,
		field:  field,
		params: params,
		rng:    kernel.Rand(),
		energy: make([]energy.Meter, field.Len()),
		nodes:  make([]nodeState, field.Len()),
		rxSlot: make([]int32, field.Len()),
	}
	for i := range n.nodes {
		ns := &n.nodes[i]
		ns.id = topology.NodeID(i)
		ns.on = true
		ns.cw = cwMin
		ns.sense = senseEvent{net: n, ns: ns}
	}
	return n
}

// --- pooled records ---------------------------------------------------------

func (n *Network) allocTx(kind txKind, owner *nodeState, to topology.NodeID, f Frame) *transmission {
	var tx *transmission
	if k := len(n.txFree); k > 0 {
		tx = n.txFree[k-1]
		n.txFree = n.txFree[:k-1]
	} else {
		tx = &transmission{net: n}
	}
	tx.kind = kind
	tx.owner = owner
	tx.from = owner.id
	tx.to = to
	tx.frame = f
	return tx
}

// releaseTx recycles a transmission once its airtime has ended and its
// completion step ran; nothing may hold the record past that point (end()
// removed it from every audible set, and off nodes clear theirs wholesale).
func (n *Network) releaseTx(tx *transmission) {
	tx.recv = tx.recv[:0]
	tx.dst = 0
	tx.frame = Frame{}
	tx.nav = 0
	tx.owner, tx.peer, tx.of = nil, nil, nil
	n.txFree = append(n.txFree, tx)
}

func (n *Network) allocFrame(to topology.NodeID, f Frame) *outFrame {
	var of *outFrame
	if k := len(n.frameFree); k > 0 {
		of = n.frameFree[k-1]
		n.frameFree = n.frameFree[:k-1]
	} else {
		of = &outFrame{}
	}
	of.to = to
	of.frame = f
	of.retries = 0
	of.released = false
	return of
}

// releaseFrame recycles a dequeued frame. Frames dropped by a node failure
// are deliberately NOT recycled: a stale timeout armed before the failure
// may still reference them, and letting the garbage collector reap those
// keeps the stale step harmless, exactly as before pooling.
func (n *Network) releaseFrame(of *outFrame) {
	if of.released {
		return
	}
	of.released = true
	of.frame = Frame{}
	n.frameFree = append(n.frameFree, of)
}

// --- configuration and introspection ----------------------------------------

// SetReceiver registers the delivery callback for node id.
func (n *Network) SetReceiver(id topology.NodeID, r Receiver) { n.nodes[id].recv = r }

// SetLinkFilter installs a per-reception link filter (nil removes it). The
// filter must be deterministic given the kernel's RNG for runs to stay
// reproducible.
func (n *Network) SetLinkFilter(f LinkFilter) { n.filter = f }

// SetDropHook installs a lost-reception observer (nil removes it).
func (n *Network) SetDropHook(h DropHook) { n.drop = h }

// SetUnicastOutcomeHook installs a unicast-outcome observer (nil removes
// it). It fires before the frame is dequeued, so the hook sees the frame
// payload intact.
func (n *Network) SetUnicastOutcomeHook(h UnicastOutcome) { n.outcome = h }

// reportDrop invokes the drop hook for a lost data-frame reception at nb,
// but only when nb was an intended receiver of tx. Callers on the hot path
// must check n.drop != nil first so the uninstrumented configuration pays
// nothing for the classification.
func (n *Network) reportDrop(tx *transmission, nb topology.NodeID, reason RxDropReason) {
	if n.drop == nil || tx.kind != txData {
		return
	}
	if tx.to != Broadcast && tx.to != nb {
		return
	}
	n.drop(tx.from, nb, tx.frame, reason)
}

// Meter returns node id's energy meter.
func (n *Network) Meter(id topology.NodeID) *energy.Meter { return &n.energy[id] }

// Stats returns a snapshot of the link-layer counters.
func (n *Network) Stats() Stats { return n.stats }

// On reports whether node id is powered on.
func (n *Network) On(id topology.NodeID) bool { return n.nodes[id].on }

// SetOn powers node id on or off. Turning a node off drops its queue and any
// frame it is mid-receiving; energy up-time accounting is the caller's
// concern (see failure.Schedule).
func (n *Network) SetOn(id topology.NodeID, on bool) {
	ns := &n.nodes[id]
	if ns.on == on {
		return
	}
	ns.on = on
	if !on {
		n.stats.Drops[DropNodeOff] += len(ns.queue)
		ns.queue = nil
		ns.sending = false
		ns.txActive = false
		ns.audible = nil
		ns.cw = cwMin
		ns.navUntil = 0
	}
}

// Broadcast queues a broadcast frame at node from. It returns an error if
// the payload is rejected at the door (off node, full queue); air-time
// losses are reported only through Stats, as a real MAC would.
func (n *Network) Broadcast(from topology.NodeID, f Frame) error {
	return n.enqueue(from, Broadcast, f)
}

// Unicast queues a frame for a specific neighbor. Delivery is acknowledged
// and retried; out-of-range destinations simply never ACK and the frame is
// dropped after the retry limit, like a real radio.
func (n *Network) Unicast(from, to topology.NodeID, f Frame) error {
	if to == Broadcast || int(to) >= n.field.Len() || to < 0 {
		return fmt.Errorf("mac: invalid unicast destination %d", to)
	}
	return n.enqueue(from, to, f)
}

func (n *Network) enqueue(from, to topology.NodeID, f Frame) error {
	ns := &n.nodes[from]
	if !ns.on {
		n.stats.Drops[DropNodeOff]++
		return fmt.Errorf("mac: node %d is off", from)
	}
	if f.Bytes <= 0 {
		return fmt.Errorf("mac: non-positive frame size %d", f.Bytes)
	}
	if len(ns.queue) >= queueLimit {
		n.stats.Drops[DropQueueFull]++
		return fmt.Errorf("mac: node %d queue full", from)
	}
	ns.queue = append(ns.queue, n.allocFrame(to, f))
	if !ns.sending {
		n.startContention(ns)
	}
	return nil
}

// busy reports whether the medium is sensed busy at node ns, physically or
// through the NAV set by an overheard RTS/CTS.
func (n *Network) busy(ns *nodeState) bool {
	return ns.txActive || len(ns.audible) > 0 || n.kernel.Now() < ns.navUntil
}

// startContention begins the DIFS + backoff dance for the head-of-queue
// frame. Contention is modeled as repeated short waits: sense after a DIFS
// plus a random number of slots; if the medium is busy, wait a fresh backoff
// and sense again. This approximates 802.11's freeze-and-resume counter
// without per-slot events.
func (n *Network) startContention(ns *nodeState) {
	if len(ns.queue) == 0 || !ns.on {
		ns.sending = false
		return
	}
	ns.sending = true
	n.stats.Backoffs++
	slots := n.rng.Intn(ns.cw)
	wait := difs + time.Duration(slots)*slotTime
	n.kernel.ScheduleRunner(wait, &ns.sense)
}

func (n *Network) senseAndSend(ns *nodeState) {
	if !ns.on || len(ns.queue) == 0 {
		ns.sending = false
		return
	}
	if n.busy(ns) {
		// Medium busy: back off again with the same window.
		n.stats.Backoffs++
		slots := n.rng.Intn(ns.cw) + 1
		n.kernel.ScheduleRunner(time.Duration(slots)*slotTime+difs, &ns.sense)
		return
	}
	of := ns.queue[0]
	n.transmit(ns, of)
}

// transmit puts the head frame on the air, via the RTS/CTS handshake when
// enabled for unicast frames at or above the threshold.
func (n *Network) transmit(ns *nodeState, of *outFrame) {
	if n.params.UseRTSCTS && of.to != Broadcast && of.frame.Bytes >= rtsThreshold {
		n.sendRTS(ns, of)
		return
	}
	n.transmitData(ns, of)
}

func (n *Network) transmitData(ns *nodeState, of *outFrame) {
	tx := n.allocTx(txData, ns, of.to, of.frame)
	tx.of = of
	airtime := n.energy[ns.id].Transmit(of.frame.Bytes)
	n.stats.DataTx++
	n.stats.BytesOnAir += int64(of.frame.Bytes)
	n.begin(ns, tx, airtime)
}

// exchangeNAV returns the medium reservation an RTS advertises: CTS + DATA
// + ACK plus the three SIFS gaps.
func (n *Network) exchangeNAV(dataBytes int) time.Duration {
	return 3*sifs +
		energy.Airtime(ctsBytes) +
		energy.Airtime(dataBytes) +
		energy.Airtime(ackBytes)
}

// sendRTS starts the RTS/CTS handshake for the head frame.
func (n *Network) sendRTS(ns *nodeState, of *outFrame) {
	rts := n.allocTx(txRTS, ns, of.to, Frame{Bytes: rtsBytes})
	rts.of = of
	rts.nav = n.exchangeNAV(of.frame.Bytes)
	airtime := n.energy[ns.id].Transmit(rts.frame.Bytes)
	n.stats.RtsTx++
	n.stats.BytesOnAir += int64(rts.frame.Bytes)
	n.begin(ns, rts, airtime)
}

// finishRTS runs at the end of an RTS's airtime: a decodable RTS draws a
// CTS after SIFS; otherwise the sender waits out the CTS window and retries
// like a missing ACK (cheap collision).
func (n *Network) finishRTS(rts *transmission) {
	ns, of := rts.owner, rts.of
	if !ns.on {
		return
	}
	dest := &n.nodes[of.to]
	if dest.on && n.field.InRange(ns.id, of.to) && rts.destIntact() {
		n.call(sifs, opSendCTS, dest, ns, of)
		return
	}
	timeout := sifs + energy.Airtime(ctsBytes) + slotTime
	n.call(timeout, opAckTimeout, ns, nil, of)
}

// sendCTS answers an RTS and, on success, releases the sender's data frame
// after SIFS without further contention.
func (n *Network) sendCTS(dest, src *nodeState, of *outFrame) {
	if !dest.on {
		n.ackTimeout(src, of)
		return
	}
	cts := n.allocTx(txCTS, dest, src.id, Frame{Bytes: ctsBytes})
	cts.peer = src
	cts.of = of
	cts.nav = 2*sifs + energy.Airtime(of.frame.Bytes) + energy.Airtime(ackBytes)
	airtime := n.energy[dest.id].Transmit(cts.frame.Bytes)
	n.stats.CtsTx++
	n.stats.BytesOnAir += int64(cts.frame.Bytes)
	n.begin(dest, cts, airtime)
}

// finishCTS runs at the end of a CTS's airtime: a decodable CTS releases
// the data frame after SIFS; a corrupted one sends the RTS sender to the
// retry path.
func (n *Network) finishCTS(cts *transmission) {
	dest, src, of := cts.owner, cts.peer, cts.of
	if !src.on {
		return
	}
	if dest.on && n.field.InRange(dest.id, src.id) && cts.destIntact() {
		n.call(sifs, opDataAfterCTS, src, nil, of)
		return
	}
	n.call(sifs+slotTime, opAckTimeout, src, nil, of)
}

// begin starts a transmission: marks the sender busy, corrupts overlapping
// receptions, charges listeners, and schedules the transmission itself as
// the end-of-airtime event.
func (n *Network) begin(ns *nodeState, tx *transmission, airtime time.Duration) {
	ns.txActive = true
	// Every receiver pays the same charge for this frame.
	rx := energy.RxCharge(tx.frame.Bytes)
	// Half-duplex: anything the sender was hearing is lost to it.
	for _, h := range ns.audible {
		n.corrupt(&h.tx.recv[h.slot])
	}
	tx.moves = n.field.Moves()
	for _, nb := range n.field.Neighbors(ns.id) {
		rs := &n.nodes[nb]
		if !rs.on {
			if n.drop != nil {
				n.reportDrop(tx, nb, RxReceiverOff)
			}
			continue
		}
		// The receiver's radio is captured for the airtime either way.
		n.energy[nb].ChargeReceive(rx)
		flags := rxHeard
		if n.filter != nil && !n.filter(ns.id, nb) {
			flags |= rxLost
			n.stats.LinkLoss++
		}
		if rs.txActive {
			flags |= rxCorrupted
			n.stats.Collisions++
		}
		if len(rs.audible) > 0 {
			// Overlap: this frame and everything already audible at nb are
			// corrupted at nb.
			if flags&rxCorrupted == 0 {
				flags |= rxCorrupted
				n.stats.Collisions++
			}
			for _, h := range rs.audible {
				n.corrupt(&h.tx.recv[h.slot])
			}
		}
		slot := int32(len(tx.recv))
		tx.recv = append(tx.recv, rxEntry{id: nb, flags: flags, pos: int32(len(rs.audible))})
		if nb == tx.to {
			tx.dst = slot + 1
		}
		rs.audible = append(rs.audible, hearing{tx: tx, slot: slot})
	}
	n.kernel.ScheduleRunner(airtime, tx)
}

// end removes tx from every receiver's audible set and delivers it where it
// survived — exactly the receivers recorded heard at airtime start: under
// mobility the live neighbor set can differ by the time the airtime ends,
// and only nodes that heard the frame start can finish receiving it.
//
// If the field took no MoveNode since begin(), receivers are settled in
// slot order. That is the live-neighbor walk below, exactly: begin()
// appended one entry per on neighbor in list order, the list is unchanged,
// and every entry is still heard (finishReception alone clears rxHeard, and
// end() is its only caller). Any move sends the frame to the walk, even one
// that changed no link, since rescanning the moved node's list can reorder
// it. The walk keeps the live list's order: live neighbors first, each
// resolved to its entry through the rxSlot index, then any receivers that
// moved out of range mid-frame in ascending ID. Nothing inside
// finishReception can append to tx.recv, move a node or re-enter end() (no
// begin() runs reentrantly; contention and handshake steps are scheduled,
// not called), so the index and slots stay valid across delivery callbacks.
func (n *Network) end(tx *transmission) {
	senderDied := !n.nodes[tx.from].on // died mid-frame: nothing decodable
	if tx.moves == n.field.Moves() {
		for i := range tx.recv {
			n.finishReception(tx, int32(i), senderDied)
		}
		return
	}
	for i := range tx.recv {
		if tx.recv[i].flags&rxHeard != 0 {
			n.rxSlot[tx.recv[i].id] = int32(i) + 1
		}
	}
	for _, nb := range n.field.Neighbors(tx.from) {
		if s := n.rxSlot[nb]; s != 0 {
			n.rxSlot[nb] = 0
			n.finishReception(tx, s-1, senderDied)
		}
	}
	movers := n.movers[:0]
	for i := range tx.recv {
		if id := tx.recv[i].id; n.rxSlot[id] != 0 {
			n.rxSlot[id] = 0
			movers = append(movers, int32(i))
		}
	}
	// Insertion sort by ID: movers are rare and few.
	for i := 1; i < len(movers); i++ {
		for j := i; j > 0 && tx.recv[movers[j-1]].id > tx.recv[movers[j]].id; j-- {
			movers[j-1], movers[j] = movers[j], movers[j-1]
		}
	}
	for _, s := range movers {
		n.finishReception(tx, s, senderDied)
	}
	n.movers = movers
}

// finishReception settles the receiver in tx's slot at the end of tx's
// airtime: consume its heard flag, detach it from the audible set, classify
// losses, apply NAV for handshakes, and deliver surviving payloads.
func (n *Network) finishReception(tx *transmission, slot int32, senderDied bool) {
	e := &tx.recv[slot]
	e.flags &^= rxHeard
	nb, flags, pos := e.id, e.flags, e.pos
	rs := &n.nodes[nb]
	audible := rs.audible
	if int(pos) >= len(audible) || audible[pos].tx != tx {
		return // receiver turned off since tx started (audible cleared)
	}
	// Swap-remove: nothing reads audible in order, so the last hearing fills
	// the gap and its entry's back-pointer follows it.
	last := len(audible) - 1
	if int(pos) != last {
		moved := audible[last]
		audible[pos] = moved
		moved.tx.recv[moved.slot].pos = pos
	}
	rs.audible = audible[:last]
	if !rs.on || senderDied || flags&(rxCorrupted|rxLost) != 0 {
		// Classify the loss only when someone is listening; the reason
		// switch is pure observability.
		if n.drop != nil {
			reason := RxLinkLoss
			switch {
			case !rs.on:
				reason = RxReceiverOff
			case senderDied:
				reason = RxSenderOff
			case flags&rxCorrupted != 0:
				reason = RxCollision
			}
			n.reportDrop(tx, nb, reason)
		}
		return
	}
	if tx.kind == txRTS || tx.kind == txCTS {
		// Virtual carrier sense: third parties defer for the whole
		// advertised exchange.
		if tx.to != nb {
			if until := n.kernel.Now() + tx.nav; until > rs.navUntil {
				rs.navUntil = until
			}
		}
		return // handshake handled by the two parties' completions
	}
	if tx.kind == txAck {
		return // ACK consumption handled by the waiting sender
	}
	if tx.to != Broadcast && tx.to != nb {
		return // unicast overheard by a third party: charged, not delivered
	}
	if rs.recv != nil {
		n.stats.Delivered++
		rs.recv(tx.from, tx.frame)
	}
}

// finishData runs at the end of a data frame's airtime: handle ACKs for
// unicast, advance the queue for broadcast.
func (n *Network) finishData(tx *transmission) {
	ns, of := tx.owner, tx.of
	if !ns.on {
		return
	}
	if of.to == Broadcast {
		n.dequeueAndContinue(ns)
		return
	}
	// Unicast: did the destination get it?
	dest := &n.nodes[of.to]
	gotIt := dest.on && n.field.InRange(ns.id, of.to) && tx.destIntact()
	if gotIt {
		// Destination sends an ACK after SIFS, bypassing contention.
		n.call(sifs, opSendAck, dest, ns, of)
		return
	}
	// No ACK will come; wait out the ACK window before retrying.
	timeout := sifs + energy.Airtime(ackBytes) + slotTime
	n.call(timeout, opAckTimeout, ns, nil, of)
}

// sendAck transmits the ACK frame from dest back to src; finishAck
// completes src's pending frame if the ACK survives.
func (n *Network) sendAck(dest, src *nodeState, of *outFrame) {
	if !dest.on {
		n.ackTimeout(src, of)
		return
	}
	ackTx := n.allocTx(txAck, dest, src.id, Frame{Bytes: ackBytes})
	ackTx.peer = src
	ackTx.of = of
	airtime := n.energy[dest.id].Transmit(ackBytes)
	n.stats.AckTx++
	n.stats.BytesOnAir += int64(ackBytes)
	n.begin(dest, ackTx, airtime)
}

// finishAck runs at the end of an ACK's airtime: a decodable ACK completes
// the sender's frame; anything else sends it to the retry path.
func (n *Network) finishAck(ack *transmission) {
	dest, src, of := ack.owner, ack.peer, ack.of
	if !src.on {
		return
	}
	if dest.on && n.field.InRange(dest.id, src.id) && ack.destIntact() {
		// ACK received: success.
		src.cw = cwMin
		if n.outcome != nil {
			n.outcome(src.id, of.to, of.frame, true, of.retries)
		}
		n.dequeueAndContinue(src)
		return
	}
	n.ackTimeout(src, of)
}

// ackTimeout handles a missing ACK: retry with a doubled window or drop.
func (n *Network) ackTimeout(ns *nodeState, of *outFrame) {
	n.stats.AcksMissing++
	if of.retries >= retryLimit {
		n.stats.Drops[DropRetryExceeded]++
		ns.cw = cwMin
		if n.outcome != nil {
			n.outcome(ns.id, of.to, of.frame, false, of.retries)
		}
		n.dequeueAndContinue(ns)
		return
	}
	of.retries++
	n.stats.Retries++
	if ns.cw*2 <= cwMax {
		ns.cw *= 2
	}
	ns.sending = true
	n.stats.Backoffs++
	slots := n.rng.Intn(ns.cw) + 1
	n.kernel.ScheduleRunner(time.Duration(slots)*slotTime+difs, &ns.sense)
}

// dequeueAndContinue pops the completed head frame and starts contention for
// the next one, if any. The head slot is shifted out rather than re-sliced
// so the queue's backing array is reused for the life of the node.
func (n *Network) dequeueAndContinue(ns *nodeState) {
	if k := len(ns.queue); k > 0 {
		head := ns.queue[0]
		copy(ns.queue, ns.queue[1:])
		ns.queue[k-1] = nil
		ns.queue = ns.queue[:k-1]
		n.releaseFrame(head)
	}
	ns.sending = false
	if len(ns.queue) > 0 {
		n.startContention(ns)
	}
}
