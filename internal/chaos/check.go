package chaos

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/diffusion"
	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Checker validates protocol invariants at runtime. It is installed as the
// run's diffusion tracer and as a hook on the metrics observer, and audits
// the gradient structure periodically. Enforced invariants:
//
//   - off-node silence: no protocol message is sent by or delivered to a
//     powered-off node;
//   - duplicate suppression: a sink never reports the same distinct event
//     twice (reset for a sink that crashes with amnesia);
//   - incremental-cost monotonicity: the cost C a node sends for one
//     exploratory entry never increases within a stream — a node's
//     self-originated emissions (§4.1 source rule) and its forwarding of a
//     foreign origin are independent streams — and a forwarded C never
//     exceeds the minimum C received for that entry. Both rules hold only
//     on a stable topology: after an adjacency change (mobility epoch,
//     churn departure) baselines are re-anchored and enforcement pauses
//     for a grace window while gradients re-form (see topoGrace);
//   - no persistent gradient cycle: the per-entry reinforcement rule allows
//     *transient* two-node data-gradient cycles (see the W cap in the
//     aggregation path), but truncation must dissolve any cycle it can see;
//     a cycle that survives two consecutive audits (~2.5× the truncation
//     window) while every one of its edges carried data between them AND at
//     least one edge carried exclusively duplicate traffic is a violation —
//     a stale-only edge is precisely the evidence the truncation rule acts
//     on, so its survival means truncation failed. Cycles whose every edge
//     keeps delivering fresh items are legal under the paper's rules (the
//     truncation rule spares fresh senders, and duplicate suppression
//     bounds the circulation), as are quiescent cycles stranded by a
//     partition, wave, or reroute — protocol state awaiting gradient
//     expiry, not violations.
//
// Invariant state for an exploratory entry expires on the protocol's own
// entry lifetime (diffusion.EntryTTL) so cache pruning on the protocol side
// cannot manufacture false violations.
type Checker struct {
	kernel *sim.Kernel
	net    *mac.Network
	field  *topology.Field
	nodes  int

	trees     TreeSource
	interests int

	violations []Violation
	total      int

	// onViolation, when set, is invoked synchronously for every breach (even
	// past the maxViolations cap). The flight recorder hooks it to dump its
	// ring the moment the first violation fires.
	onViolation func(Violation)

	seen    map[topology.NodeID]map[msg.ItemKey]bool
	streams map[streamKey]*costState
	recvMin map[recvKey]*costState

	lastLink   map[edge]time.Duration // last data reception per directed link
	lastFresh  map[edge]time.Duration // last reception carrying any fresh item
	prevCycles map[string]bool
	flagged    map[string]bool

	// repairAt records each node's most recent OpRepair event. A cycle
	// touching a node that repaired within the grace window is excused from
	// the stale-cycle rule: localized re-reinforcement after detected
	// silence legitimately rebuilds gradients mid-audit, and flagging that
	// as a fresh/stale cycle would punish exactly the recovery behavior the
	// self-healing layer exists to provide.
	repairAt map[topology.NodeID]time.Duration

	// lastTopo is when the adjacency last changed (mobility epoch or churn
	// departure). Cost baselines established before it are re-anchored, not
	// enforced: a topology change legitimately lengthens paths, so cost
	// monotonicity is an invariant only between changes.
	lastTopo time.Duration
}

// edge is a directed data-gradient link (data flows from -> to).
type edge struct{ from, to topology.NodeID }

// Violation is one recorded invariant breach.
type Violation struct {
	At        time.Duration
	Invariant string
	Detail    string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%12v %s: %s", v.At, v.Invariant, v.Detail)
}

const (
	maxViolations = 64
	auditPeriod   = 5 * time.Second

	// repairGrace is how long after a node's local repair its cycles stay
	// excused: two audit periods, matching the persistence evidence the
	// stale-cycle rule itself requires.
	repairGrace = 2 * auditPeriod

	// topoGrace is how long after an adjacency change the cost-monotonicity
	// rules stay observed-but-unenforced: gradient re-formation over the new
	// topology takes several protocol exchanges, and each can legitimately
	// raise a cost. Under continuous mobility the rules are effectively off —
	// which is honest, as cost monotonicity is only an invariant of a stable
	// topology.
	topoGrace = 2 * auditPeriod
)

// streamKey identifies one node's send stream for one exploratory entry.
// selfOrigin separates the §4.1 source-emission stream from the forwarding
// stream: their guards are independent in the protocol, so their
// monotonicity is too.
type streamKey struct {
	node       topology.NodeID
	interest   msg.InterestID
	id         msg.MsgID
	selfOrigin bool
}

// recvKey identifies the incremental costs one node received for one entry.
type recvKey struct {
	node     topology.NodeID
	interest msg.InterestID
	id       msg.MsgID
}

type costState struct {
	c     int
	first time.Duration
}

func newChecker(kernel *sim.Kernel, net *mac.Network, field *topology.Field) *Checker {
	return &Checker{
		kernel:    kernel,
		net:       net,
		field:     field,
		nodes:     field.Len(),
		seen:      make(map[topology.NodeID]map[msg.ItemKey]bool),
		streams:   make(map[streamKey]*costState),
		recvMin:   make(map[recvKey]*costState),
		lastLink:  make(map[edge]time.Duration),
		lastFresh: make(map[edge]time.Duration),
		flagged:   make(map[string]bool),
		repairAt:  make(map[topology.NodeID]time.Duration),
	}
}

func (c *Checker) bind(trees TreeSource, interests int) {
	c.trees = trees
	c.interests = interests
}

func (c *Checker) violate(invariant, detail string) {
	c.total++
	v := Violation{At: c.kernel.Now(), Invariant: invariant, Detail: detail}
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, v)
	}
	if c.onViolation != nil {
		c.onViolation(v)
	}
}

// SetOnViolation installs a callback invoked synchronously on every breach,
// including ones past the recording cap. Install before the run starts.
func (c *Checker) SetOnViolation(fn func(Violation)) { c.onViolation = fn }

// SelfTest records one synthetic "selftest" violation. It exists for the
// flight-recorder path: forcing a violation on demand exercises the
// dump-on-violation machinery end to end without having to craft a real
// protocol breach.
func (c *Checker) SelfTest(detail string) { c.violate("selftest", detail) }

// Violations returns the recorded breaches (capped at maxViolations).
func (c *Checker) Violations() []Violation {
	return append([]Violation(nil), c.violations...)
}

// ViolationCount returns the uncapped total number of breaches.
func (c *Checker) ViolationCount() int { return c.total }

// Record implements diffusion.Tracer.
func (c *Checker) Record(ev trace.Event) {
	switch ev.Op {
	case trace.OpSend:
		if !c.net.On(ev.Node) {
			c.violate("off-node-send",
				fmt.Sprintf("node %d sent %v while off", ev.Node, ev.Kind))
		}
		if ev.Kind == msg.KindIncCost {
			c.checkIncCostSend(ev)
		}
	case trace.OpReceive:
		if !c.net.On(ev.Node) {
			c.violate("off-node-receive",
				fmt.Sprintf("node %d received %v while off", ev.Node, ev.Kind))
		}
		switch ev.Kind {
		case msg.KindIncCost:
			c.noteIncCostReceive(ev)
		case msg.KindData:
			e := edge{ev.Peer, ev.Node}
			c.lastLink[e] = ev.At
			if ev.Fresh > 0 {
				c.lastFresh[e] = ev.At
			}
		}
	case trace.OpRepair:
		c.repairAt[ev.Node] = ev.At
	}
}

// TopologyChanged invalidates the cost-monotonicity baselines: gradients
// re-form over the new adjacency, so a higher C is the expected response,
// not a violation. The engine stamps it on every effective mobility epoch
// and churn departure via TopologyFault.
func (c *Checker) TopologyChanged() { c.lastTopo = c.kernel.Now() }

func (c *Checker) checkIncCostSend(ev trace.Event) {
	enforce := c.lastTopo == 0 || ev.At-c.lastTopo > topoGrace
	k := streamKey{ev.Node, ev.Interest, ev.ID, ev.Origin == ev.Node}
	if !k.selfOrigin {
		rk := recvKey{ev.Node, ev.Interest, ev.ID}
		if rm := c.recvMin[rk]; rm != nil && rm.first >= c.lastTopo &&
			ev.At-rm.first <= diffusion.EntryTTL && ev.C > rm.c && enforce {
			c.violate("inccost-above-received",
				fmt.Sprintf("node %d forwarded C=%d for entry %d, above received minimum %d",
					ev.Node, ev.C, ev.ID, rm.c))
		}
	}
	s := c.streams[k]
	if s == nil || ev.At-s.first > diffusion.EntryTTL || s.first < c.lastTopo {
		c.streams[k] = &costState{c: ev.C, first: ev.At}
		return
	}
	if ev.C > s.c && enforce {
		c.violate("inccost-increase",
			fmt.Sprintf("node %d raised C %d -> %d for entry %d (self-origin=%v)",
				ev.Node, s.c, ev.C, ev.ID, k.selfOrigin))
	}
	s.c = ev.C
}

func (c *Checker) noteIncCostReceive(ev trace.Event) {
	k := recvKey{ev.Node, ev.Interest, ev.ID}
	rm := c.recvMin[k]
	if rm == nil || ev.At-rm.first > diffusion.EntryTTL || rm.first < c.lastTopo {
		c.recvMin[k] = &costState{c: ev.C, first: ev.At}
		return
	}
	if ev.C < rm.c {
		rm.c = ev.C
	}
}

// delivered feeds the duplicate-suppression invariant from the observer.
func (c *Checker) delivered(sink topology.NodeID, item msg.Item) {
	m := c.seen[sink]
	if m == nil {
		m = make(map[msg.ItemKey]bool)
		c.seen[sink] = m
	}
	if m[item.Key()] {
		c.violate("duplicate-delivery",
			fmt.Sprintf("sink %d reported item %v twice", sink, item.Key()))
		return
	}
	m[item.Key()] = true
}

// NodeRebooted resets all per-node invariant state after a crash with
// amnesia: the protocol legitimately forgot its guards, so the checker must
// forget its expectations.
func (c *Checker) NodeRebooted(id topology.NodeID) {
	for k := range c.streams {
		if k.node == id {
			delete(c.streams, k)
		}
	}
	for k := range c.recvMin {
		if k.node == id {
			delete(c.recvMin, k)
		}
	}
	delete(c.seen, id)
	delete(c.repairAt, id)
}

// startAudits arms the periodic gradient-structure audit; a no-op without a
// tree source (idealized schemes).
func (c *Checker) startAudits() {
	if c.trees == nil {
		return
	}
	c.kernel.Schedule(auditPeriod, c.audit)
}

func (c *Checker) audit() {
	defer c.kernel.Schedule(auditPeriod, c.audit)
	c.pruneCostState()
	cur := make(map[string][]topology.NodeID)
	for iid := 0; iid < c.interests; iid++ {
		c.findCycles(msg.InterestID(iid), cur)
	}
	prev := c.prevCycles
	c.prevCycles = make(map[string]bool, len(cur))
	for sig, cycle := range cur {
		c.prevCycles[sig] = true
		if prev[sig] && !c.flagged[sig] && c.cycleActive(cycle) && !c.recentlyRepaired(cycle) {
			c.flagged[sig] = true
			c.violate("persistent-gradient-cycle", sig)
		}
	}
}

// recentlyRepaired reports whether any cycle member performed a local repair
// within the grace window; such a cycle is settling, not stuck.
func (c *Checker) recentlyRepaired(cycle []topology.NodeID) bool {
	cutoff := c.kernel.Now() - repairGrace
	for _, u := range cycle {
		if at, ok := c.repairAt[u]; ok && at >= cutoff {
			return true
		}
	}
	return false
}

// cycleActive reports whether the cycle's survival is the protocol's fault:
// every edge carried data since the previous audit (so every downstream node
// had its upstream in a truncation window), and at least one edge carried
// exclusively duplicates over that span — the evidence the truncation rule
// must act on. An all-fresh cycle is legal: truncation spares senders that
// deliver new items, and duplicate suppression bounds the circulation. A
// cycle with an edge whose endpoints have moved out of radio range is also
// legal: no frame can traverse that edge any more, so the gradient is
// stranded protocol state awaiting expiry — mobility is a fault injected on
// the protocol, not a truncation failure.
func (c *Checker) cycleActive(cycle []topology.NodeID) bool {
	cutoff := c.kernel.Now() - auditPeriod
	staleEdge := false
	for i, u := range cycle {
		v := cycle[(i+1)%len(cycle)]
		if !c.field.InRange(u, v) {
			return false
		}
		e := edge{u, v}
		if c.lastLink[e] < cutoff {
			return false
		}
		if c.lastFresh[e] < cutoff {
			staleEdge = true
		}
	}
	return staleEdge
}

func (c *Checker) pruneCostState() {
	now := c.kernel.Now()
	for k, s := range c.streams {
		if now-s.first > diffusion.EntryTTL {
			delete(c.streams, k)
		}
	}
	for k, s := range c.recvMin {
		if now-s.first > diffusion.EntryTTL {
			delete(c.recvMin, k)
		}
	}
	for k, at := range c.lastLink {
		if now-at > diffusion.EntryTTL {
			delete(c.lastLink, k)
		}
	}
	for k, at := range c.lastFresh {
		if now-at > diffusion.EntryTTL {
			delete(c.lastFresh, k)
		}
	}
	for k, at := range c.repairAt {
		if now-at > diffusion.EntryTTL {
			delete(c.repairAt, k)
		}
	}
}

// findCycles walks one interest's data-gradient graph with a colored DFS and
// records every cycle under its canonical signature.
func (c *Checker) findCycles(iid msg.InterestID, out map[string][]topology.NodeID) {
	color := make([]int8, c.nodes) // 0 white, 1 on current path, 2 done
	index := make([]int, c.nodes)
	var path []topology.NodeID
	var visit func(u topology.NodeID)
	visit = func(u topology.NodeID) {
		color[u] = 1
		index[u] = len(path)
		path = append(path, u)
		for _, v := range c.trees.DataGradients(u, iid) {
			switch color[v] {
			case 0:
				visit(v)
			case 1:
				cycle := append([]topology.NodeID(nil), path[index[v]:]...)
				out[cycleSignature(iid, cycle)] = cycle
			}
		}
		path = path[:len(path)-1]
		color[u] = 2
	}
	for i := 0; i < c.nodes; i++ {
		if color[i] == 0 {
			visit(topology.NodeID(i))
		}
	}
}

// cycleSignature renders a cycle rotated to start at its smallest node so
// the same cycle found from different entry points compares equal.
func cycleSignature(iid msg.InterestID, cycle []topology.NodeID) string {
	min := 0
	for i, v := range cycle {
		if v < cycle[min] {
			min = i
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "interest %d cycle:", iid)
	for i := range cycle {
		fmt.Fprintf(&b, " %d", cycle[(min+i)%len(cycle)])
	}
	return b.String()
}
