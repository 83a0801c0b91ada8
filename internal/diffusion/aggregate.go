package diffusion

import (
	"math"
	"slices"
	"time"

	"repro/internal/msg"
	"repro/internal/setcover"
	"repro/internal/topology"
)

// contribution is one input to the aggregation buffer: an incoming data
// message (or the node's own generated item) with its cost attribute.
type contribution struct {
	from     topology.NodeID
	items    []msg.Item // full payload, for the set-cover family
	w        int
	newItems []msg.Item // the subset not already forwarded
}

// pendingBuffer holds contributions awaiting the aggregation flush. rec is
// the armed flush timer, nil when none is armed.
type pendingBuffer struct {
	contribs []contribution
	rec      *nodeTimer
}

// --- data path ------------------------------------------------------------

func (n *node) onData(from topology.NodeID, m msg.Message) {
	st := n.state(m.Interest)
	now := n.now()
	st.lastDataFrom.put(from, now)

	fresh := 0
	for _, it := range m.Items {
		if !st.dataCache.has(it.Key()) {
			fresh++
		}
		st.srcSeen.put(it.Source, now)
	}
	// Message payloads are immutable once sent, so the fully-fresh common
	// case shares the incoming slice instead of copying it.
	var newItems []msg.Item
	switch {
	case fresh == len(m.Items):
		newItems = m.Items
	case fresh > 0:
		newItems = make([]msg.Item, 0, fresh)
		for _, it := range m.Items {
			if !st.dataCache.has(it.Key()) {
				newItems = append(newItems, it)
			}
		}
	}

	st.window = append(st.window, ReceivedAgg{
		From:     from,
		W:        m.W,
		NewItems: newItems,
	})
	n.armTruncation()

	if n.isSink && m.Interest == n.sinkInterest {
		n.deliver(st, m.Items, newItems, -1)
		return
	}
	if fresh == 0 {
		return // pure duplicate: the cache absorbs it (loop prevention)
	}
	for _, it := range newItems {
		st.dataCache.add(it.Key(), now)
	}
	n.addPending(st, contribution{from: from, items: m.Items, w: m.W, newItems: newItems})
}

// activeSources returns the sources whose items this node has seen recently
// (within twice the truncation window), in ascending order. The slice is the
// runtime's shared scratch buffer: valid until the next call, never retained.
func (n *node) activeSources(st *interestState) []topology.NodeID {
	cutoff := n.now() - 2*n.rt.params.NegReinforceWindow
	out := n.rt.sc.sources[:0]
	for _, e := range st.srcSeen.es {
		if e.val >= cutoff {
			out = append(out, e.key)
		}
	}
	n.rt.sc.sources = out
	return out
}

// isAggregationPoint reports whether this node currently merges traffic from
// at least two sources — only then is the Ta delay worth paying (§4.2: "an
// intermediate node that is not an aggregation point does not need to delay
// the data at all").
func (n *node) isAggregationPoint(st *interestState) bool {
	return len(n.activeSources(st)) >= 2
}

// addPending buffers a contribution and manages the flush timer: immediate
// for pass-through nodes, Ta-delayed at aggregation points, flushed early
// once every active source is represented ("a node that receives a
// sufficient amount of data does not need to delay any further").
func (n *node) addPending(st *interestState, c contribution) {
	st.pending.contribs = append(st.pending.contribs, c)

	if st.pending.rec != nil {
		if n.sufficientForFlush(st) {
			st.pending.rec = nil // its timer now fires as a no-op
			n.flush(st)
		}
		return
	}

	var delay time.Duration
	if n.isAggregationPoint(st) && !n.sufficientForFlush(st) {
		delay = n.rt.params.AggregationDelay
	}
	n.armFlush(delay, st)
}

// sufficientForFlush reports whether the pending buffer already holds items
// from every recently active source. The buffer holds a handful of items,
// so scanning it beats building a set.
func (n *node) sufficientForFlush(st *interestState) bool {
	active := n.activeSources(st)
	if len(active) < 2 {
		return true
	}
	for _, src := range active {
		if !pendingHas(st.pending.contribs, src) {
			return false
		}
	}
	return true
}

// pendingHas reports whether any contribution carries a new item from src.
func pendingHas(contribs []contribution, src topology.NodeID) bool {
	for i := range contribs {
		for _, it := range contribs[i].newItems {
			if it.Source == src {
				return true
			}
		}
	}
	return false
}

// flush aggregates the pending contributions into one outgoing message per
// live data gradient. The outgoing cost attribute is the weight of a greedy
// minimum set cover of the new items by the incoming aggregates, plus one
// for our own transmission (§4.2).
func (n *node) flush(st *interestState) {
	contribs := st.pending.contribs
	st.pending.contribs = st.pending.contribs[:0]
	if len(contribs) == 0 {
		return
	}

	total := 0
	for i := range contribs {
		total += len(contribs[i].newItems)
	}
	// Lineage: every appended copy is about to ride one more transmission,
	// and a merge of two or more fresh upstream contributions widens its
	// recorded fan-in. Only the fresh copies built here are stamped — shared
	// incoming slices stay immutable per the msg.Clone contract.
	fanIn := 0
	for i := range contribs {
		if len(contribs[i].newItems) > 0 {
			fanIn++
		}
	}
	// The merged payload escapes into the outgoing message, so it is the one
	// slice here that must be freshly allocated. Its keys, deduplicated by a
	// scan (payloads hold tens of items), are the set-cover universe.
	items := make([]msg.Item, 0, total)
	universe := n.rt.sc.universe[:0]
	for _, c := range contribs {
		for _, it := range c.newItems {
			k := it.Key()
			if slices.Contains(universe, k) {
				continue
			}
			universe = append(universe, k)
			if it.Hops < math.MaxUint16 {
				it.Hops++
			}
			if fanIn >= 2 && uint16(fanIn) > it.FanIn {
				it.FanIn = uint16(fanIn)
			}
			items = append(items, it)
		}
	}
	n.rt.sc.universe = universe
	if len(items) == 0 {
		return
	}

	// One flat key buffer backs every subset; pre-sizing it up front keeps
	// the per-subset subslices in one backing array. The solver keeps no
	// reference to its inputs, so the scratch is free again as soon as it
	// returns.
	keyCount := 0
	for i := range contribs {
		keyCount += len(contribs[i].items)
	}
	keys := n.rt.sc.keys
	if cap(keys) < keyCount {
		keys = make([]msg.ItemKey, 0, keyCount)
	}
	keys = keys[:0]
	family := n.rt.sc.family[:0]
	for i, c := range contribs {
		start := len(keys)
		for _, it := range c.items {
			keys = append(keys, it.Key())
		}
		family = append(family, setcover.Subset[msg.ItemKey]{
			Label: i, Elements: keys[start:len(keys):len(keys)], Weight: float64(c.w),
		})
	}
	n.rt.sc.keys = keys
	n.rt.sc.family = family

	n.rt.count.SetCoverInput.Observe(float64(len(family)))
	cover, err := n.rt.sc.cover.Solve(universe, family)
	if err != nil {
		panic(err) // weights are non-negative by construction
	}
	// Cap the cost attribute: per-entry gradients can form transient
	// two-node cycles in which W would otherwise compound without bound.
	// Any value past the cap is equally "infinitely expensive" to the
	// truncation rule.
	const maxW = 1 << 20
	w := maxW
	if cover.Weight < maxW {
		w = int(math.Round(cover.Weight)) + 1
	}

	grads := n.dataGradients(st)
	if n.rt.params.Repair.Enabled {
		n.sendDataHealing(st, grads, items, w)
		return
	}
	if len(grads) == 0 {
		return // truncated or expired mid-flight: the data dies here
	}
	out := msg.Message{
		Kind:     msg.KindData,
		Interest: st.id,
		Origin:   n.id,
		Items:    items,
		W:        w,
		Bytes:    n.rt.params.Agg.Size(len(items)),
	}
	for _, nbr := range grads {
		n.unicast(nbr, out)
	}
}

// --- truncation (negative reinforcement) -----------------------------------

// truncationPass runs the strategy's path-truncation rule over the last
// window of received aggregates, on the node's Tn grid while any window
// holds one. A node that is on empties every window, so its pass lapses
// until onData arms the next; one that is off reads none, and keeps its
// pass while a window is non-empty.
func (n *node) truncationPass() {
	n.truncArmed = false
	if !n.on() {
		for _, e := range n.interests.es {
			if len(e.val.window) > 0 {
				n.armTruncation()
				return
			}
		}
		return
	}
	for _, e := range n.interests.es {
		iid, st := e.key, e.val
		window := st.window
		st.window = st.window[:0]
		if len(window) == 0 {
			continue
		}
		victims := n.rt.strategy.Truncate(window, &n.rt.sc.trunc)
		n.rt.count.TruncationPrunes += len(victims)
		for _, victim := range victims {
			n.unicast(victim, msg.Message{
				Kind:     msg.KindNegReinforce,
				Interest: iid,
				Origin:   n.id,
				Bytes:    msg.ControlBytes,
			})
		}
	}
}

// --- local repair ------------------------------------------------------------

// repairPass re-reinforces an alternate upstream neighbor when a reinforced
// one has gone silent (§2: "if a node on this preferred path fails, sensor
// nodes can attempt to locally repair the failed path"). It acts only on
// the tree, so it runs on the node's grid while the node is a sink or holds
// a live data gradient, and otherwise lapses until setGradient arms it.
func (n *node) repairPass() {
	n.repairArmed = false
	defer n.rearmRepair()
	if !n.on() {
		return
	}
	if n.rt.params.Repair.Enabled {
		n.healingPass()
		return
	}
	now := n.now()
	for _, ie := range n.interests.es {
		iid, st := ie.key, ie.val
		onTree := (n.isSink && iid == n.sinkInterest) || n.hasDataGradient(st)
		if !onTree {
			continue
		}
		for _, ee := range st.entries.es {
			e := ee.val
			if !e.HasChosen || e.skeleton || e.Origin == n.id {
				continue
			}
			if now-e.created > EntryTTL {
				continue // too stale even for repair; floods will rebuild
			}
			if now-e.chosenAt < repairTimeout {
				continue // give the fresh choice time to deliver
			}
			// Repair keys on the *source* going silent, not on which
			// upstream carries it: truncation legitimately reroutes a
			// source's items through a sibling branch.
			if last := st.srcSeen.ref(e.Origin); last != nil && now-*last < repairTimeout {
				continue
			}
			if e.excluded == nil {
				e.excluded = make(map[topology.NodeID]bool)
			}
			e.excluded[e.Chosen] = true
			if len(e.excluded) >= len(e.Copies) {
				// Every candidate has been tried and found silent; start
				// the rotation over rather than wedging.
				e.excluded = make(map[topology.NodeID]bool)
			}
			e.HasChosen = false
			n.reinforceEntry(st, e)
		}
	}
}

// rearmRepair keeps the repair pass going after it ran if it can still act.
func (n *node) rearmRepair() {
	if n.isSink {
		n.armRepair()
		return
	}
	for _, e := range n.interests.es {
		if n.hasDataGradient(e.val) {
			n.armRepair()
			return
		}
	}
}

// --- cache pruning -----------------------------------------------------------

// prunePass is where lazy expiry catches up with the tables: stale entries
// linger (harmlessly — every use site checks expiry) until this pass
// compacts each table in one ordered sweep.
func (n *node) prunePass() {
	defer n.armKind(DataCacheTTL/2, tkPrune)
	p := n.rt.params
	now := n.now()
	cacheTTL := DataCacheTTL
	if p.Repair.Enabled && n.isSink {
		// Repair can legitimately replay old items — probe replies carry
		// exploratory items up to 1.5 periods old, rebuffered data up to the
		// retention bound. The sink's duplicate cache must outlive anything
		// the layer can replay, or a late replay would double-count a
		// delivery.
		cacheTTL = 2 * exploratoryPeriod
	}
	entryCutoff := now - EntryTTL
	seenCutoff := now - 4*p.NegReinforceWindow
	for _, ie := range n.interests.es {
		st := ie.val
		st.dataCache.expire(now, cacheTTL)
		st.entries.keep(func(e *entryState) bool { return e.created >= entryCutoff })
		st.grads.expire(now, &n.rt.sc.slots)
		st.lastDataFrom.keep(func(at time.Duration) bool { return at >= seenCutoff })
		st.srcSeen.keep(func(at time.Duration) bool { return at >= seenCutoff })
	}
	if p.Repair.Enabled {
		n.pruneRepairState(now)
	}
}
