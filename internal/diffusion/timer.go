package diffusion

// Pooled timer records. Every delayed action a diffusion node takes —
// periodic source loops, flood forwards, reinforcement decisions, flush
// timers, housekeeping passes — used to be a fresh closure handed to the
// kernel. A nodeTimer is the closure's state flattened into a recyclable
// record scheduled via sim.ScheduleRunner, so arming a timer on the hot
// path allocates nothing once the runtime's free list is warm.
//
// Every scheduled event fires, so a record goes back to the free list in
// exactly one place: Run releases it before dispatching. A record is
// therefore never handed to a new arm while its event is still queued,
// which is what lets the flush recognise a stale timer by pointer identity.

import (
	"time"

	"repro/internal/msg"
	"repro/internal/topology"
)

type timerKind uint8

const (
	tkGenerate timerKind = iota + 1
	tkExplorRound
	tkInterestFlood
	tkFloodForward
	tkExplorForward
	tkSinkReinforce
	tkFlush
	tkTruncation
	tkRepair
	tkPrune
	tkCtrlRetry
	tkDataRetry
)

// nodeTimer is one pending delayed action. Which fields are meaningful
// depends on kind; ep carries the arming epoch for the actions that must
// not survive a crash-with-amnesia.
type nodeTimer struct {
	n    *node
	st   *interestState
	e    *entryState
	m    msg.Message
	iid  msg.InterestID
	to   topology.NodeID // retransmission target (tkCtrlRetry)
	ep   int
	kind timerKind
	next *nodeTimer // free-list link
}

func (rt *Runtime) acquireTimer() *nodeTimer {
	t := rt.timerFree
	if t == nil {
		return &nodeTimer{}
	}
	rt.timerFree = t.next
	t.next = nil
	return t
}

func (rt *Runtime) releaseTimer(t *nodeTimer) {
	*t = nodeTimer{next: rt.timerFree}
	rt.timerFree = t
}

// Run dispatches the timed action. The record is copied out and recycled
// before the action runs, so handlers are free to arm new timers.
func (t *nodeTimer) Run() {
	n, st, e, m, iid, to, ep, kind := t.n, t.st, t.e, t.m, t.iid, t.to, t.ep, t.kind
	n.rt.releaseTimer(t)
	switch kind {
	case tkGenerate:
		if n.epoch == ep {
			n.generateEvent()
		}
	case tkExplorRound:
		if n.epoch == ep {
			n.exploratoryRound(iid)
		}
	case tkInterestFlood:
		n.floodInterest() // survives reboots: no epoch guard
	case tkFloodForward:
		if n.epoch == ep && n.on() {
			n.broadcast(m)
		}
	case tkExplorForward:
		if n.epoch == ep && n.on() {
			m.E = e.BestE // best known at send time
			n.broadcast(m)
		}
	case tkSinkReinforce:
		if n.epoch == ep && n.on() {
			n.reinforceEntry(st, e)
		}
	case tkFlush:
		// A flush that an early flush or a crash overtook is stale: only
		// the armed record may flush.
		if n.epoch == ep && st.pending.rec == t {
			st.pending.rec = nil
			if n.on() {
				n.flush(st)
			}
		}
	case tkTruncation:
		n.truncationPass()
	case tkRepair:
		n.repairPass()
	case tkPrune:
		n.prunePass()
	case tkCtrlRetry:
		if n.epoch == ep && n.on() {
			n.ctrlRetryFire(to, m)
		}
	case tkDataRetry:
		if n.epoch == ep && n.on() {
			n.dataRetryFire(m)
		}
	}
}

// armKind schedules a node-scoped action (periodic loops, housekeeping).
func (n *node) armKind(d time.Duration, kind timerKind) {
	t := n.rt.acquireTimer()
	t.n, t.ep, t.kind = n, n.epoch, kind
	n.rt.kernel.ScheduleRunner(d, t)
}

// armRound schedules an interest-scoped action carrying just the id.
func (n *node) armRound(d time.Duration, kind timerKind, iid msg.InterestID) {
	t := n.rt.acquireTimer()
	t.n, t.iid, t.ep, t.kind = n, iid, n.epoch, kind
	n.rt.kernel.ScheduleRunner(d, t)
}

// armMsg schedules a delayed forward of m (with the optional entry whose
// best cost is stamped at send time).
func (n *node) armMsg(d time.Duration, kind timerKind, e *entryState, m msg.Message) {
	t := n.rt.acquireTimer()
	t.n, t.e, t.m, t.ep, t.kind = n, e, m, n.epoch, kind
	n.rt.kernel.ScheduleRunner(d, t)
}

// armCtrl schedules a control-message retransmission toward a specific
// neighbor (self-healing layer).
func (n *node) armCtrl(d time.Duration, to topology.NodeID, m msg.Message) {
	t := n.rt.acquireTimer()
	t.n, t.to, t.m, t.ep, t.kind = n, to, m, n.epoch, tkCtrlRetry
	n.rt.kernel.ScheduleRunner(d, t)
}

// armEntry schedules a per-entry action on st.
func (n *node) armEntry(d time.Duration, kind timerKind, st *interestState, e *entryState) {
	t := n.rt.acquireTimer()
	t.n, t.st, t.e, t.ep, t.kind = n, st, e, n.epoch, kind
	n.rt.kernel.ScheduleRunner(d, t)
}

// armFlush schedules the aggregation flush and records it as st's armed
// flush.
func (n *node) armFlush(d time.Duration, st *interestState) {
	t := n.rt.acquireTimer()
	t.n, t.st, t.ep, t.kind = n, st, n.epoch, tkFlush
	st.pending.rec = t
	n.rt.kernel.ScheduleRunner(d, t)
}
