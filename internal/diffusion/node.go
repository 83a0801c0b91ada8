package diffusion

import (
	"math"
	"time"

	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/topology"
	"repro/internal/trace"
)

type gradKind int

const (
	gradExploratory gradKind = iota + 1
	gradData
)

type gradient struct {
	kind    gradKind
	expires time.Duration
}

// interestState is one node's per-interest protocol state. The soft-state
// collections are sorted-insert tables (table.go): iteration is ascending by
// key with no sort or key-slice allocation on any hot path, and expiry is
// lazy — checked where entries are used, compacted in prunePass.
type interestState struct {
	id msg.InterestID

	// grads maps downstream neighbor -> gradient (direction: data sent to
	// that neighbor flows toward the interest's sink).
	grads table[topology.NodeID, gradient]

	// seenRound is the newest interest flood round forwarded.
	seenRound int

	// entries caches exploratory events by message id.
	entries table[msg.MsgID, *entryState]

	// dataCache suppresses duplicate items: item key -> last seen.
	dataCache map[msg.ItemKey]time.Duration

	// pending is the aggregation buffer.
	pending pendingBuffer

	// window collects aggregates received since the last truncation pass.
	window []ReceivedAgg

	// lastDataFrom tracks when each upstream neighbor last delivered data.
	lastDataFrom table[topology.NodeID, time.Duration]

	// srcSeen tracks when items from each source last passed through, for
	// the aggregation-point test.
	srcSeen table[topology.NodeID, time.Duration]

	// lastNegCascade rate-limits negative-reinforcement propagation;
	// negCascaded distinguishes "never" from a cascade at t=0.
	lastNegCascade time.Duration
	negCascaded    bool

	// activated marks a source that has begun sensing for this interest.
	activated bool

	// repairingUntil is the self-healing layer's degradation window: while
	// it lies in the future, data with no usable gradient is broadcast
	// opportunistically instead of dropped (repair.go). Always zero when
	// repair is disabled.
	repairingUntil time.Duration
}

// entryState wraps the strategy-visible ExplorEntry with runtime-private
// bookkeeping.
type entryState struct {
	ExplorEntry
	forwarded bool
	skeleton  bool // created by an inc-cost message; flood not yet heard
	created   time.Duration
	chosenAt  time.Duration
	excluded  map[topology.NodeID]bool
	sinkTimer bool // reinforcement already scheduled at the sink

	// probedAt and repairing belong to the self-healing layer: when the
	// watchdog gave up on this entry's upstream and found no cached
	// alternative, repairing marks the probe-wait state and probedAt
	// rate-limits re-probing. Both stay zero when repair is disabled.
	probedAt  time.Duration
	repairing bool

	// fwdC is the lowest incremental cost already forwarded for this entry,
	// so improvements propagate but duplicates do not; sentC is the lowest C
	// this node emitted as an on-tree source for it. The two flags share a
	// word, which keeps the entry, seen included, in the 320-byte size class.
	fwdC, sentC       int
	hasFwdC, hasSentC bool

	// copiesBuf is inline storage backing Copies for the common small
	// fan-in, so recording the first few flood copies never allocates.
	copiesBuf [4]Copy

	// seen is a 128-bit filter over the neighbors Copies holds, bit
	// nbr&127: a clear bit proves nbr has no copy yet.
	seen [2]uint64
}

// recordCopy notes a flood delivery from nbr at the given accumulated cost,
// keeping the cheapest cost per neighbor and first-arrival order. A flood
// reaches a node at most once per neighbor, so most copies are a neighbor's
// first: the seen filter lets those append without scanning Copies, and
// only a set bit (a repeat, or another neighbor on the same bit) scans.
// degree is the node's current neighbor count: when copies outgrow the
// inline buffer they move to a slice sized for that many in one allocation
// rather than a doubling chain.
func (e *entryState) recordCopy(nbr topology.NodeID, cost int, at time.Duration, degree int) {
	if !e.HasE || cost < e.BestE {
		e.HasE = true
		e.BestE = cost
	}
	b := uint(nbr) & 127
	if w, bit := &e.seen[b>>6], uint64(1)<<(b&63); *w&bit == 0 {
		*w |= bit
	} else {
		for i := range e.Copies {
			if e.Copies[i].Nbr == nbr {
				if cost < e.Copies[i].E {
					e.Copies[i].E = cost
				}
				return
			}
		}
	}
	switch {
	case e.Copies == nil:
		e.Copies = e.copiesBuf[:0]
	case len(e.Copies) == len(e.copiesBuf) && degree > len(e.copiesBuf):
		// The inline buffer is full (Copies never shrinks, so a length of
		// exactly len(copiesBuf) means it is still inline). Mobility can
		// add neighbors later; append then grows past degree.
		e.Copies = append(make([]Copy, 0, degree), e.Copies...)
	}
	e.Copies = append(e.Copies, Copy{Nbr: nbr, E: cost, Arrival: at})
}

type node struct {
	rt *Runtime
	id topology.NodeID

	isSink       bool
	sinkInterest msg.InterestID
	isSource     bool

	interests table[msg.InterestID, *interestState]

	seq           int // next item sequence number (sources)
	sourceStarted bool
	interestRound int // next flood round (sinks)

	// epoch increments on crash-with-amnesia; timers armed before the crash
	// carry the epoch they were armed under and fire as no-ops afterwards,
	// so rebooting cannot double the node's periodic loops or replay state
	// the crash wiped.
	epoch int

	// procBias is this node's persistent share of the flood-forwarding
	// jitter, modeling heterogeneous processing speed. A stable bias makes
	// flood races have stable winners, which is what lets the
	// opportunistic scheme's lowest-delay paths coincide across sources
	// when path diversity is low.
	procBias time.Duration

	// lq and retries belong to the self-healing layer (repair.go): the
	// per-neighbor link-quality estimates and the pending control
	// retransmission budgets. Both stay empty when repair is disabled.
	lq      linkQuality
	retries []ctrlRetry

	// truncPhase and repairPhase are the instants of the node's first
	// truncation and repair passes, drawn at Start: the passes fire on the
	// grids truncPhase + k·Tn and repairPhase + k·repairPeriod, but only
	// while they can act (armTruncation, armRepair). truncArmed and
	// repairArmed mark a pending pass of each kind, so a node holds at most
	// one of each. Crashes leave them alone: a pass armed before a crash
	// still fires, finds nothing, and lapses.
	truncPhase, repairPhase time.Duration
	truncArmed, repairArmed bool
}

// initNode populates a slab slot in place; the procBias RNG draw happens
// here, in ascending-ID order, exactly as the pointer-per-node constructor
// drew it.
func initNode(n *node, rt *Runtime, id topology.NodeID) {
	n.rt = rt
	n.id = id
	n.procBias = rt.jitter(FloodJitterMax / 2)
}

// floodDelay returns the forwarding delay for flood rebroadcasts: the
// node's persistent processing bias plus a fresh contention component that
// scales with local density. MAC queueing and backoff variance grow with
// the number of contending neighbors, so flood races have stable winners in
// sparse fields (the opportunistic scheme's lowest-delay paths then
// coincide across sources) and noisy winners in dense ones (path diversity
// decorrelates them) — the density effect at the heart of the paper.
func (n *node) floodDelay() time.Duration {
	deg := len(n.rt.field.Neighbors(n.id))
	contention := FloodJitterMax / 2 * time.Duration(deg) / 16
	return n.procBias + n.rt.jitter(contention)
}

func (n *node) on() bool { return n.rt.net.On(n.id) }

// amnesia models a crash-and-reboot that loses RAM: every interest's soft
// state (gradients, exploratory entry caches, duplicate-suppression caches,
// aggregation buffers, source activation) vanishes, so the node must re-learn
// the tree from subsequent floods. Counters a real deployment would keep in
// flash to avoid reusing identifiers — the item sequence number and a sink's
// interest round — survive, as does the hardware processing bias.
func (n *node) amnesia() {
	n.interests.reset()
	n.sourceStarted = false
	n.lq.reset()
	n.retries = n.retries[:0]
	n.epoch++
}

func (n *node) now() time.Duration { return n.rt.kernel.Now() }

func (n *node) state(iid msg.InterestID) *interestState {
	st := n.interests.get(iid)
	if st == nil {
		st = &interestState{
			id:        iid,
			dataCache: make(map[msg.ItemKey]time.Duration),
		}
		n.interests.put(iid, st)
	}
	return st
}

// --- periodic drivers ---------------------------------------------------

func (n *node) startSink() {
	n.floodInterest()
}

func (n *node) floodInterest() {
	if n.on() {
		n.interestRound++
		m := msg.Message{
			Kind:     msg.KindInterest,
			Interest: n.sinkInterest,
			ID:       msg.MsgID(n.interestRound),
			Origin:   n.id,
			Bytes:    msg.ControlBytes,
		}
		n.broadcast(m)
	}
	n.armKind(interestPeriod, tkInterestFlood)
}

// startHousekeeping starts periodic cache pruning and draws the truncation
// and repair phases. A sink's repair pass runs for the whole run; every
// other pass is armed on demand.
func (n *node) startHousekeeping() {
	p := n.rt.params
	now := n.now()
	// Offset each node's phases randomly so passes do not synchronize
	// network-wide. Every node draws both, whether or not it ever arms
	// them, so the random stream does not depend on which nodes act.
	n.truncPhase = now + p.NegReinforceWindow + n.rt.jitter(p.NegReinforceWindow)
	n.repairPhase = now + repairPeriod + n.rt.jitter(repairPeriod)
	if n.isSink {
		n.armRepair()
	}
	n.armKind(DataCacheTTL, tkPrune)
}

// nextTick returns the first instant phase + k·period (k ≥ 0) strictly
// after now. A pass armed exactly on a grid instant waits for the next one:
// the pass due then would already have fired.
func nextTick(phase, period, now time.Duration) time.Duration {
	if now < phase {
		return phase
	}
	return phase + ((now-phase)/period+1)*period
}

// armTruncation schedules the node's next truncation pass on its grid,
// unless one is pending or housekeeping has not started.
func (n *node) armTruncation() {
	if n.truncArmed || !n.rt.started {
		return
	}
	n.truncArmed = true
	now := n.now()
	n.armKind(nextTick(n.truncPhase, n.rt.params.NegReinforceWindow, now)-now, tkTruncation)
}

// armRepair schedules the node's next repair pass on its grid, unless one
// is pending or housekeeping has not started.
func (n *node) armRepair() {
	if n.repairArmed || !n.rt.started {
		return
	}
	n.repairArmed = true
	now := n.now()
	n.armKind(nextTick(n.repairPhase, repairPeriod, now)-now, tkRepair)
}

// activateSource begins sensing for an interest: periodic events and
// exploratory floods. Called when the first interest for iid arrives.
func (n *node) activateSource(iid msg.InterestID) {
	st := n.state(iid)
	if st.activated {
		return
	}
	st.activated = true
	if !n.sourceStarted {
		n.sourceStarted = true
		n.armKind(n.rt.jitter(DataPeriod), tkGenerate)
	}
	n.armRound(n.rt.jitter(FloodJitterMax*4), tkExplorRound, iid)
}

// generateEvent produces the next sensed item and hands it to every
// activated interest's data path.
func (n *node) generateEvent() {
	defer n.armKind(DataPeriod, tkGenerate)
	if !n.on() {
		return
	}
	item := msg.Item{Source: n.id, Seq: n.seq, GenTime: int64(n.now())}
	n.seq++
	if n.rt.observer != nil {
		n.rt.observer.Generated(n.id, item)
	}
	for _, e := range n.interests.es {
		st := e.val
		if !st.activated {
			continue
		}
		st.dataCache[item.Key()] = n.now()
		st.srcSeen.put(n.id, n.now())
		if !n.hasDataGradient(st) &&
			!(n.rt.params.Repair.Enabled && n.now() < st.repairingUntil) {
			continue // not reinforced yet: high-rate data has nowhere to go
		}
		// The source's own item joins the aggregation buffer with zero
		// upstream cost; the +1 for its own transmission is added at flush.
		n.addPending(st, contribution{from: n.id, items: []msg.Item{item}, w: 0, newItems: []msg.Item{item}})
	}
}

// exploratoryRound floods one exploratory event for interest iid and
// re-arms itself.
func (n *node) exploratoryRound(iid msg.InterestID) {
	defer n.armRound(exploratoryPeriod, tkExplorRound, iid)
	if !n.on() {
		return
	}
	st := n.state(iid)
	item := msg.Item{Source: n.id, Seq: n.seq, GenTime: int64(n.now())}
	n.seq++
	if n.rt.observer != nil {
		n.rt.observer.Generated(n.id, item)
	}
	st.dataCache[item.Key()] = n.now()
	mid := n.rt.newMsgID()
	e := &entryState{
		ExplorEntry: ExplorEntry{
			ID:     mid,
			Origin: n.id,
			Item:   item,
			HasE:   true,
			BestE:  0,
		},
		created:   n.now(),
		forwarded: true,
	}
	st.entries.put(mid, e)
	m := msg.Message{
		Kind:     msg.KindExploratory,
		Interest: iid,
		ID:       mid,
		Origin:   n.id,
		E:        0,
		Items:    []msg.Item{item},
		Bytes:    msg.EventBytes,
	}
	n.rt.count.ExploratoryFloods++
	n.broadcast(m)
}

// --- receive dispatch -----------------------------------------------------

func (n *node) receive(from topology.NodeID, f mac.Frame) {
	m, ok := f.Payload.(msg.Message)
	if !ok {
		panic("diffusion: foreign payload on the MAC")
	}
	n.rt.traceMsg(trace.OpReceive, n.id, from, m)
	switch m.Kind {
	case msg.KindInterest:
		n.onInterest(from, m)
	case msg.KindExploratory:
		n.onExploratory(from, m)
	case msg.KindData:
		n.onData(from, m)
	case msg.KindIncCost:
		n.onIncCost(from, m)
	case msg.KindReinforce:
		n.onReinforce(from, m)
	case msg.KindNegReinforce:
		n.onNegReinforce(from, m)
	case msg.KindRepairProbe:
		n.onRepairProbe(from, m)
	}
}

// --- interests ------------------------------------------------------------

func (n *node) onInterest(from topology.NodeID, m msg.Message) {
	if n.isSink && m.Interest == n.sinkInterest {
		return // our own flood echoed back
	}
	st := n.state(m.Interest)
	n.setGradient(st, from, gradExploratory)
	round := int(m.ID)
	if round <= st.seenRound {
		return
	}
	st.seenRound = round
	// Same round id; gradient setup is hop-by-hop.
	n.armMsg(n.floodDelay(), tkFloodForward, nil, m)
	if n.isSource {
		n.activateSource(m.Interest)
	}
}

// setGradient installs or refreshes a gradient toward nbr. An existing data
// gradient is never downgraded by an interest flood; its expiry is extended,
// which revives one that expired but is not yet pruned. Either way a data
// gradient leaves the node live on the tree, so its repair pass is armed.
func (n *node) setGradient(st *interestState, nbr topology.NodeID, kind gradKind) {
	g, existed := st.grads.getOrInsert(nbr)
	if existed {
		n.rt.count.GradientHits++
	} else {
		n.rt.count.GradientMisses++
	}
	switch {
	case kind == gradData:
		g.kind = gradData
		g.expires = n.now() + dataGradientTimeout
	case existed && g.kind == gradData:
		// Keep the stronger gradient; refresh its life only modestly.
		if e := n.now() + exploratoryGradientTimeout; e > g.expires {
			g.expires = e
		}
	default:
		g.kind = gradExploratory
		g.expires = n.now() + exploratoryGradientTimeout
	}
	if g.kind == gradData {
		n.armRepair()
	}
}

// degradeGradient turns a data gradient toward nbr back into an exploratory
// one (negative reinforcement) and reports whether anything changed.
func (n *node) degradeGradient(st *interestState, nbr topology.NodeID) bool {
	g := st.grads.ref(nbr)
	if g == nil || g.kind != gradData {
		return false
	}
	g.kind = gradExploratory
	g.expires = n.now() + exploratoryGradientTimeout
	return true
}

func (n *node) hasDataGradient(st *interestState) bool {
	now := n.now()
	for _, e := range st.grads.es {
		if e.val.kind == gradData && e.val.expires > now {
			return true
		}
	}
	return false
}

// dataGradients returns live downstream data-gradient neighbors in ID order.
// The slice is the runtime's shared scratch buffer: valid until the next
// dataGradients call, never retained by callers.
func (n *node) dataGradients(st *interestState) []topology.NodeID {
	out := n.rt.sc.grads[:0]
	now := n.now()
	for _, e := range st.grads.es {
		if e.val.kind == gradData && e.val.expires > now {
			out = append(out, e.key)
		}
	}
	n.rt.sc.grads = out
	return out
}

// --- exploratory events -----------------------------------------------------

func (n *node) onExploratory(from topology.NodeID, m msg.Message) {
	st := n.state(m.Interest)
	// With fixed transmission power the paper measures energy as hops: each
	// transmission that delivered the message costs one.
	cost := m.E + 1

	e := st.entries.get(m.ID)
	seen := e != nil
	if seen && !e.skeleton && e.Origin == n.id {
		return // our own flood echoed back
	}
	if !seen {
		e = &entryState{created: n.now()}
		e.ID = m.ID
		st.entries.put(m.ID, e)
	}
	improved := !e.HasE || cost < e.BestE
	e.recordCopy(from, cost, n.now(), len(n.rt.field.Neighbors(n.id)))
	if e.skeleton || !seen {
		// First actual flood copy: fill in the event the skeleton (created
		// by an incremental cost message that outran the flood) lacked.
		e.skeleton = false
		e.Origin = m.Origin
		e.Item = m.Items[0]
	}

	if n.isSink && m.Interest == n.sinkInterest {
		n.deliver(st, m.Items, nil, cost)
		n.scheduleSinkReinforce(st, e)
		return
	}

	// Forward the flood once, with our accumulated cost at send time.
	if !e.forwarded {
		e.forwarded = true
		n.armMsg(n.floodDelay(), tkExplorForward, e, m)
	}
	if improved {
		n.maybeEmitIncCost(st, e)
	}
}

// maybeEmitIncCost implements the §4.1 rule: a source already on the tree
// (it has data gradients) that hears a previously unseen exploratory event
// from another source emits an incremental cost message carrying the cost C
// of delivering that event to the tree here, sent along its data gradients.
// Improved costs (a cheaper copy of the flood arriving later) are re-sent.
func (n *node) maybeEmitIncCost(st *interestState, e *entryState) {
	if !n.rt.strategy.UsesIncrementalCost() {
		return
	}
	if !n.isSource || e.Origin == n.id || !n.hasDataGradient(st) {
		return
	}
	if e.hasSentC && e.sentC <= e.BestE {
		return
	}
	e.hasSentC = true
	e.sentC = e.BestE
	m := msg.Message{
		Kind:     msg.KindIncCost,
		Interest: st.id,
		ID:       e.ID,
		Origin:   n.id,
		C:        e.BestE,
		Bytes:    msg.ControlBytes,
	}
	for _, nbr := range n.dataGradients(st) {
		n.rt.count.IncCostSent++
		n.unicast(nbr, m)
	}
}

func (n *node) onIncCost(from topology.NodeID, m msg.Message) {
	st := n.state(m.Interest)
	e := st.entries.get(m.ID)
	if e == nil {
		// The cost message outran the flood (or we lost the flood to a
		// collision). Create a skeleton entry so the cost information is
		// still usable.
		e = &entryState{skeleton: true, created: n.now()}
		e.ID = m.ID
		st.entries.put(m.ID, e)
	}
	if !e.HasC || m.C < e.BestC {
		e.HasC = true
		e.BestC = m.C
		e.BestCNbr = from
	}
	if n.isSink && m.Interest == n.sinkInterest {
		n.scheduleSinkReinforce(st, e)
		return
	}
	// Refine with our own flood-derived cost and forward along the tree if
	// it improves on anything we sent before (§4.1: C may only decrease).
	out := m.C
	if e.HasE && e.BestE < out {
		out = e.BestE
	}
	if e.hasFwdC && e.fwdC <= out {
		return
	}
	e.hasFwdC = true
	e.fwdC = out
	fwd := msg.Message{
		Kind:     msg.KindIncCost,
		Interest: st.id,
		ID:       m.ID,
		Origin:   m.Origin,
		C:        out,
		Bytes:    msg.ControlBytes,
	}
	for _, nbr := range n.dataGradients(st) {
		n.rt.count.IncCostSent++
		n.unicast(nbr, fwd)
	}
}

// --- reinforcement ----------------------------------------------------------

// scheduleSinkReinforce arms the sink's per-entry reinforcement decision: an
// immediate one for the opportunistic scheme, a Tp timer for the greedy
// scheme so incremental cost messages can compete with the raw flood.
func (n *node) scheduleSinkReinforce(st *interestState, e *entryState) {
	if e.sinkTimer {
		return
	}
	e.sinkTimer = true
	delay := n.rt.strategy.SinkReinforceDelay(n.rt.params)
	n.armEntry(delay, tkSinkReinforce, st, e)
}

// reinforceEntry applies the strategy's local rule and reinforces the chosen
// upstream neighbor for entry e. Neighbors we already send data to
// (downstream for this interest) are never acceptable upstreams: a
// bidirectional data link would be a gradient cycle.
func (n *node) reinforceEntry(st *interestState, e *entryState) {
	exclude := e.excluded
	if down := n.dataGradients(st); len(down) > 0 {
		merged := n.rt.sc.exclude
		if merged == nil {
			merged = make(map[topology.NodeID]bool, len(e.excluded)+len(down))
			n.rt.sc.exclude = merged
		} else {
			clear(merged)
		}
		for id := range e.excluded {
			merged[id] = true
		}
		for _, id := range down {
			merged[id] = true
		}
		exclude = merged
	}
	nbr, ok := n.rt.strategy.ChooseUpstream(&e.ExplorEntry, exclude)
	if !ok {
		return
	}
	e.Chosen = nbr
	e.HasChosen = true
	e.chosenAt = n.now()
	m := msg.Message{
		Kind:     msg.KindReinforce,
		Interest: st.id,
		ID:       e.ID,
		Origin:   n.id,
		Bytes:    msg.ControlBytes,
	}
	n.rt.count.ReinforceSent++
	n.rt.cascades[cascadeKey{st.id, e.ID}]++ // extends the entry's cascade
	n.unicast(nbr, m)
}

func (n *node) onReinforce(from topology.NodeID, m msg.Message) {
	st := n.state(m.Interest)
	n.setGradient(st, from, gradData)
	e := st.entries.get(m.ID)
	if e == nil {
		return // no cached path state: cannot propagate further
	}
	if !e.skeleton && e.Origin == n.id {
		return // we are the source: the path is complete
	}
	if e.HasChosen {
		return // already on the tree for this entry; the paths just merged
	}
	n.reinforceEntry(st, e)
}

func (n *node) onNegReinforce(from topology.NodeID, m msg.Message) {
	st := n.state(m.Interest)
	if !n.degradeGradient(st, from) {
		return // nothing changed; never cascade on a stale degrade
	}
	if n.hasDataGradient(st) {
		return
	}
	// §4.3: with no outgoing data gradients left, this node's own upstream
	// senders are useless to it; degrade them too so the dead branch
	// collapses quickly. Cascade at most once per window so two prunable
	// branches cannot ping-pong degrades forever.
	if st.negCascaded && n.now()-st.lastNegCascade < n.rt.params.NegReinforceWindow {
		return
	}
	st.negCascaded = true
	st.lastNegCascade = n.now()
	cutoff := n.now() - n.rt.params.NegReinforceWindow
	fwd := msg.Message{
		Kind:     msg.KindNegReinforce,
		Interest: st.id,
		Origin:   n.id,
		Bytes:    msg.ControlBytes,
	}
	for _, e := range st.lastDataFrom.es {
		if e.key != from && e.val >= cutoff {
			n.unicast(e.key, fwd)
		}
	}
}

// --- link helpers ------------------------------------------------------------

func (n *node) broadcast(m msg.Message) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	n.rt.sent[m.Kind]++
	n.rt.traceMsg(trace.OpSend, n.id, mac.Broadcast, m)
	// Queue-full and node-off drops are normal radio life; the MAC counts
	// them in its stats.
	_ = n.rt.net.Broadcast(n.id, mac.Frame{Bytes: m.Bytes, Payload: m})
}

func (n *node) unicast(to topology.NodeID, m msg.Message) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	n.rt.sent[m.Kind]++
	n.rt.traceMsg(trace.OpSend, n.id, to, m)
	_ = n.rt.net.Unicast(n.id, to, mac.Frame{Bytes: m.Bytes, Payload: m})
}

// deliver records sink arrivals of any new items and refreshes the
// duplicate cache. hops, when non-negative, overrides the items' lineage hop
// count before observation — the exploratory path shares its flooded Items
// slice (immutable per the msg.Clone contract), so its per-path hop count
// arrives out of band as the accumulated cost E instead of stamped items.
func (n *node) deliver(st *interestState, items []msg.Item, newOnly []msg.Item, hops int) {
	if newOnly == nil {
		newOnly = items
	}
	for _, it := range newOnly {
		if _, dup := st.dataCache[it.Key()]; dup {
			continue
		}
		st.dataCache[it.Key()] = n.now()
		if hops >= 0 {
			h := hops
			if h > math.MaxUint16 {
				h = math.MaxUint16
			}
			it.Hops = uint16(h)
		}
		delay := n.now() - time.Duration(it.GenTime)
		if n.rt.observer != nil {
			n.rt.observer.Delivered(n.id, it, delay)
		}
		n.rt.traceDeliver(n.id, it, delay)
	}
}
