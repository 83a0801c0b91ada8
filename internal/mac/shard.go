// Cross-shard transmission handoff for the sharded parallel kernel.
//
// On a sharded run every shard holds a full Field clone but hosts only the
// nodes its owner table maps to it. A frame put on the air touches its local
// receivers exactly as on the serial path; each in-range receiver owned by
// another shard instead gets a RemoteRx mail timed at the frame's end of
// airtime — which is >= one minimum-frame airtime after the emit instant,
// the group's conservative lookahead, so mails never arrive in a shard's
// past.
//
// Shifting a border receiver's energy charge and collision check from frame
// start to frame end is what makes the handoff conservative with zero
// propagation delay. The receiver reconstructs overlap from its busyUntil
// water mark: a mail whose airtime began before the last local or delivered
// frame ended is corrupted, and everything locally in flight when the mail
// lands is corrupted in return. The one asymmetry — a local frame that ends
// before the crossing frame's mail arrives escapes the corruption the
// serial path would have applied — is a documented border approximation
// (DESIGN.md §8); it is deterministic for a fixed shard count, which is the
// contract that matters.
//
// Cross-shard unicast runs a real ACK round-trip: the owning shard decides
// reception, transmits a genuine ACK frame (its local neighbors hear and
// pay for it), and the ACK's mail completes the sender's frame one backoff
// slot before the always-armed timeout would fire. Generation-counted
// frames keep stale timeouts harmless after pool recycling.
package mac

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// RemoteRx is one cross-shard reception: everything the receiving shard
// needs to finish a frame that was transmitted on another shard. The mail
// fires at the frame's end of airtime; start lets the receiver check the
// full airtime interval for overlap.
type RemoteRx struct {
	from  topology.NodeID
	to    topology.NodeID // the in-range receiver this mail is for
	dest  topology.NodeID // frame destination: Broadcast or a unicast target
	kind  txKind
	frame Frame
	start time.Duration
}

// NewSharded creates the network for one shard of a sharded run: it hosts
// only the nodes owner maps to sh's index, runs on sh's kernel, and emits
// RemoteRx mails for in-range receivers owned elsewhere. field must be the
// shard's private clone. The caller wires DeliverRemote into the shard
// group's mail dispatch.
func NewSharded(sh *sim.Shard, field *topology.Field, model energy.Model, params Params, owner []uint8) (*Network, error) {
	if len(owner) != field.Len() {
		return nil, fmt.Errorf("mac: owner table has %d entries for %d nodes", len(owner), field.Len())
	}
	if params.UseRTSCTS {
		return nil, fmt.Errorf("mac: RTS/CTS is not supported on sharded runs")
	}
	n, err := New(sh.Kernel(), field, model, params)
	if err != nil {
		return nil, err
	}
	n.shard = sh
	n.owner = owner
	n.self = uint8(sh.ID())
	return n, nil
}

// MinFrameAirtime returns the conservative lookahead a sharded run derives
// from the MAC model: the airtime of the smallest frame the MAC ever emits
// (the ACK). A cross-shard effect can never travel faster than one such
// frame, and Shard.Send clamps (and counts) anything that tries.
func MinFrameAirtime(model energy.Model, params Params) time.Duration {
	return model.Airtime(params.AckBytes)
}

// emitRemote stages the end-of-airtime mail for an in-range receiver owned
// by another shard.
func (n *Network) emitRemote(tx *transmission, nb topology.NodeID, airtime time.Duration) {
	now := n.kernel.Now()
	n.stats.RemoteMails++
	n.shard.Send(int(n.owner[nb]), now+airtime, RemoteRx{
		from:  tx.from,
		to:    nb,
		dest:  tx.to,
		kind:  tx.kind,
		frame: tx.frame,
		start: now,
	})
}

// DeliverRemote finishes one cross-shard reception on the owning shard. It
// runs at the frame's end of airtime, so charge, overlap check, and
// delivery happen in a single step.
func (n *Network) DeliverRemote(rx RemoteRx) {
	now := n.kernel.Now()
	rs := &n.nodes[rx.to]
	if !rs.on {
		if n.drop != nil && rx.kind == txData && (rx.dest == Broadcast || rx.dest == rx.to) {
			n.drop(rx.from, rx.to, rx.frame, RxReceiverOff)
		}
		return
	}
	n.energy[rx.to].Receive(rx.frame.Bytes)
	corrupted := rs.txActive || rs.busyUntil > rx.start
	// Everything locally in flight at this receiver overlaps the crossing
	// frame's airtime, so it is corrupted here exactly as begin() would
	// have done had both frames been local.
	for _, h := range rs.audible {
		n.corrupt(&h.tx.recv[h.slot])
	}
	if len(rs.audible) > 0 {
		corrupted = true
	}
	if now > rs.busyUntil {
		rs.busyUntil = now
	}
	if n.filter != nil && !n.filter(rx.from, rx.to) {
		n.stats.LinkLoss++
		if n.drop != nil && rx.kind == txData && (rx.dest == Broadcast || rx.dest == rx.to) {
			n.drop(rx.from, rx.to, rx.frame, RxLinkLoss)
		}
		return
	}
	if corrupted {
		n.stats.Collisions++
		if n.drop != nil && rx.kind == txData && (rx.dest == Broadcast || rx.dest == rx.to) {
			n.drop(rx.from, rx.to, rx.frame, RxCollision)
		}
		return
	}
	switch rx.kind {
	case txData:
		switch {
		case rx.dest == Broadcast:
			if rs.recv != nil {
				n.stats.Delivered++
				rs.recv(rx.from, rx.frame)
			}
		case rx.dest == rx.to:
			// Unicast to an owned node: deliver, then answer with a real
			// ACK after SIFS — the round-trip the sender's timeout waits
			// out. The range check uses this shard's field view, which is
			// what a receiver can know.
			if !n.field.InRange(rx.from, rx.to) {
				return
			}
			if rs.recv != nil {
				n.stats.Delivered++
				rs.recv(rx.from, rx.frame)
			}
			c := n.allocCall()
			c.op, c.a, c.peer = opSendRemoteAck, rs, rx.from
			n.kernel.ScheduleRunner(n.params.SIFS, c)
		}
		// Overheard cross-shard unicast: charged above, nothing delivered.
	case txAck:
		if rx.dest == rx.to {
			n.completeRemoteAck(rs, rx.from)
		}
	}
}

// sendRemoteAck transmits a genuine ACK frame from dest back to the
// cross-shard sender src. Local neighbors hear (and are charged for) the
// ACK like any other; src itself receives it as a RemoteRx mail through
// begin's remote branch. peer/of stay nil — the sender shard completes or
// times out on its own.
func (n *Network) sendRemoteAck(dest *nodeState, src topology.NodeID) {
	if !dest.on {
		return
	}
	ackTx := n.allocTx(txAck, dest, src, Frame{Bytes: n.params.AckBytes})
	airtime := n.energy[dest.id].Transmit(n.params.AckBytes)
	n.stats.AckTx++
	n.stats.BytesOnAir += int64(n.params.AckBytes)
	n.begin(dest, ackTx, airtime)
}

// completeRemoteAck finishes a cross-shard unicast on the sending shard
// when the destination's ACK mail arrives: the head-of-queue frame awaiting
// a remote ACK from that destination succeeds. An ACK landing after the
// timeout already retried (possible when the data mail was latency-clamped)
// completes the in-flight retry instead — the same attempt ambiguity a real
// MAC has.
func (n *Network) completeRemoteAck(ns *nodeState, from topology.NodeID) {
	if !ns.on || len(ns.queue) == 0 {
		return
	}
	of := ns.queue[0]
	if !of.awaitRemote || of.to != from {
		return
	}
	of.awaitRemote = false
	ns.cw = n.params.CWMin
	if n.outcome != nil {
		n.outcome(ns.id, of.to, of.frame, true, of.retries)
	}
	n.dequeueAndContinue(ns)
}
