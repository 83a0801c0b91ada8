// Package trace records structured protocol events for debugging and
// analysis. A Recorder keeps a bounded ring of events; filters restrict
// recording to the events of interest so multi-minute simulations stay
// cheap to trace, and the NDJSON sink writes a full trace to a file.
package trace

import (
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/topology"
)

// Op classifies a traced protocol action.
type Op int

// Operations.
const (
	// OpSend is a protocol message handed to the MAC.
	OpSend Op = iota + 1
	// OpReceive is a protocol message delivered to a node.
	OpReceive
	// OpDrop is a protocol message the radio channel would have delivered
	// but the MAC lost; Event.Reason says why. Node is the would-be
	// receiver and Peer the sender, mirroring OpReceive, so chaos runs are
	// debuggable from traces alone.
	OpDrop
	// OpRepair is a local repair decision: Node's data-silence watchdog gave
	// up on its reinforced upstream (Peer) for the entry identified by
	// Interest/ID/Origin and switched (or probed) for an alternative. The
	// chaos invariant checker uses these to excuse post-repair
	// re-reinforcement from the stale-cycle rule.
	OpRepair
	// OpDeliver is a distinct event's first arrival at a sink (Node), carrying
	// its message lineage: Origin is the source, Delay the end-to-end latency,
	// Hops the transmissions the payload took, and FanIn the widest
	// aggregation merge it passed through.
	OpDeliver
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpReceive:
		return "recv"
	case OpDrop:
		return "drop"
	case OpRepair:
		return "repair"
	case OpDeliver:
		return "deliver"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// ParseOp inverts Op.String.
func ParseOp(name string) (Op, error) {
	for _, o := range []Op{OpSend, OpReceive, OpDrop, OpRepair, OpDeliver} {
		if o.String() == name {
			return o, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown op %q", name)
}

// DropReason classifies why an OpDrop reception was lost.
type DropReason int

// Drop reasons.
const (
	// DropNone marks non-drop events.
	DropNone DropReason = iota
	// DropCollision is a reception corrupted by overlapping frames or a
	// half-duplex receiver that was itself transmitting.
	DropCollision
	// DropReceiverOff is a reception at a powered-off node.
	DropReceiverOff
	// DropSenderOff is a frame whose sender died mid-transmission, leaving
	// nothing decodable.
	DropSenderOff
	// DropChaosLoss is a reception vetoed by an installed link filter
	// (chaos link loss, bursts, asymmetry, partitions).
	DropChaosLoss
)

// String implements fmt.Stringer.
func (d DropReason) String() string {
	switch d {
	case DropNone:
		return ""
	case DropCollision:
		return "collision"
	case DropReceiverOff:
		return "receiver-off"
	case DropSenderOff:
		return "sender-off"
	case DropChaosLoss:
		return "chaos-loss"
	default:
		return fmt.Sprintf("reason(%d)", int(d))
	}
}

// ParseDropReason inverts DropReason.String ("" parses to DropNone).
func ParseDropReason(name string) (DropReason, error) {
	for d := DropNone; d <= DropChaosLoss; d++ {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown drop reason %q", name)
}

// Event is one traced protocol action.
type Event struct {
	At   time.Duration
	Op   Op
	Node topology.NodeID
	Peer topology.NodeID // destination for sends (-1 broadcast), sender for receives
	Kind msg.Kind
	// Interest identifies the task the message belongs to; ID is the
	// exploratory message id it references (zero for interests and data);
	// Origin is the node that originated the message. Together they let
	// consumers (e.g. the chaos invariant checker) follow one entry's
	// control flow across nodes.
	Interest msg.InterestID
	ID       msg.MsgID
	Origin   topology.NodeID
	// Items is the data payload size in events, E/C/W the cost attributes.
	Items   int
	E, C, W int
	// Fresh is the number of items not yet in the receiver's duplicate
	// cache; filled only for received data messages. A received aggregate
	// with Items > 0 and Fresh == 0 is pure duplicate traffic — the kind
	// the truncation rule exists to shut off.
	Fresh int
	// Reason classifies OpDrop events; DropNone otherwise.
	Reason DropReason
	// Hops, FanIn, and Delay are the lineage fields of OpDeliver events:
	// transmissions from source to sink, widest aggregation merge en route,
	// and end-to-end latency. Zero for every other op.
	Hops  int
	FanIn int
	Delay time.Duration
}

// String renders the event as one log line.
func (e Event) String() string {
	s := fmt.Sprintf("%12v %s node=%d peer=%d %s int=%d origin=%d items=%d E=%d C=%d W=%d",
		e.At, e.Op, e.Node, e.Peer, e.Kind, e.Interest, e.Origin, e.Items, e.E, e.C, e.W)
	if e.Reason != DropNone {
		s += " reason=" + e.Reason.String()
	}
	if e.Op == OpDeliver {
		s += fmt.Sprintf(" hops=%d fanin=%d delay=%v", e.Hops, e.FanIn, e.Delay)
	}
	return s
}

// Filter reports whether an event should be recorded.
type Filter func(Event) bool

// KindFilter keeps only events of the given message kinds.
func KindFilter(kinds ...msg.Kind) Filter {
	set := make(map[msg.Kind]bool, len(kinds))
	for _, k := range kinds {
		set[k] = true
	}
	return func(e Event) bool { return set[e.Kind] }
}

// And combines filters conjunctively.
func And(fs ...Filter) Filter {
	return func(e Event) bool {
		for _, f := range fs {
			if !f(e) {
				return false
			}
		}
		return true
	}
}

// Recorder keeps the most recent events in a ring buffer. Total counts every
// event the filter accepted, whether still in the ring or since evicted.
type Recorder struct {
	cap    int
	ring   []Event
	next   int
	full   bool
	total  int
	filter Filter
}

// NewRecorder returns a recorder keeping up to capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{cap: capacity, ring: make([]Event, capacity)}
}

// SetFilter installs a recording filter; nil records everything.
func (r *Recorder) SetFilter(f Filter) { r.filter = f }

// Record implements the diffusion tracer hook.
func (r *Recorder) Record(e Event) {
	if r.filter != nil && !r.filter(e) {
		return
	}
	r.ring[r.next] = e
	r.next++
	if r.next == r.cap {
		r.next = 0
		r.full = true
	}
	r.total++
}

// Events returns the recorded events, oldest first.
func (r *Recorder) Events() []Event {
	if !r.full {
		return append([]Event(nil), r.ring[:r.next]...)
	}
	out := make([]Event, 0, r.cap)
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Total returns how many events passed the filter and were recorded,
// including ones the ring has since evicted.
func (r *Recorder) Total() int { return r.total }
