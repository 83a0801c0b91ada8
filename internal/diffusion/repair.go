package diffusion

import (
	"time"

	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Self-healing layer (Params.Repair). Four cooperating mechanisms replace the
// baseline repairPass when enabled:
//
//  1. Link-quality estimation (linkquality.go): every unicast attempt cycle's
//     final outcome, reported by the MAC through the UnicastOutcome hook,
//     feeds a per-neighbor EWMA.
//  2. Adaptive control retransmission: reinforcement and incremental-cost
//     messages the MAC abandoned are re-sent with capped exponential backoff,
//     after re-validating that the decision they carry still stands.
//  3. Data-silence watchdog with localized repair: a reinforced entry whose
//     source has been quiet too long is repaired in place — re-reinforce the
//     next-best cached gradient copy (sidelining neighbors the estimator
//     distrusts), falling back to a scoped re-exploration probe only when no
//     cached alternative remains.
//  4. Graceful degradation: while repair is in flight data is not dropped —
//     unhealthy gradients are skipped when a healthy one exists, abandoned
//     data unicasts are re-buffered for a bounded retention, and a node with
//     no usable gradient broadcasts once so any on-tree neighbor can carry
//     the aggregate.
//
// Everything here is reached only when Params.Repair.Enabled: no hook is
// installed, no timer armed, no message kind sent, and no randomness drawn
// otherwise, keeping disabled runs byte-identical.

// RepairStats counts the self-healing layer's actions over a run, for
// overhead accounting in figures and reports.
type RepairStats struct {
	// WatchdogFires counts data-silence detections (one per repaired entry).
	WatchdogFires int
	// Reinforces counts successful localized re-reinforcements.
	Reinforces int
	// Probes counts scoped re-exploration broadcasts.
	Probes int
	// ProbeReplies counts unicast exploratory refreshes answered to probes.
	ProbeReplies int
	// CtrlRetries counts retransmitted control messages.
	CtrlRetries int
	// DataRebuffers counts abandoned data unicasts whose items were re-queued.
	DataRebuffers int
	// FallbackBroadcasts counts opportunistic data broadcasts sent while a
	// node had no usable gradient.
	FallbackBroadcasts int
}

// RepairStats returns the layer's action counters (all zero when disabled).
func (rt *Runtime) RepairStats() RepairStats { return rt.repair }

// ctrlRetry tracks the retransmission budget for one control message,
// identified by its destination, kind, and referenced exploratory entry.
type ctrlRetry struct {
	to       topology.NodeID
	kind     msg.Kind
	iid      msg.InterestID
	id       msg.MsgID
	attempts int
	at       time.Duration
}

// unicastOutcome is the MAC hook (installed by Start when repair is
// enabled): the final fate of every unicast attempt cycle feeds link-quality
// estimation, and failures trigger the kind-appropriate recovery.
func (rt *Runtime) unicastOutcome(from, to topology.NodeID, f mac.Frame, acked bool, _ int) {
	m, ok := f.Payload.(msg.Message)
	if !ok {
		return
	}
	n := &rt.nodes[from]
	n.lq.observe(to, acked, rt.kernel.Now())
	if acked {
		n.clearCtrlRetry(to, m.Kind, m.Interest, m.ID)
		return
	}
	switch m.Kind {
	case msg.KindReinforce, msg.KindIncCost:
		n.scheduleCtrlRetry(to, m)
	case msg.KindData:
		n.rebufferData(m)
	}
}

// --- control retransmission -------------------------------------------------

func (n *node) findCtrlRetry(to topology.NodeID, kind msg.Kind, iid msg.InterestID, id msg.MsgID) int {
	for i := range n.retries {
		r := &n.retries[i]
		if r.to == to && r.kind == kind && r.iid == iid && r.id == id {
			return i
		}
	}
	return -1
}

func (n *node) clearCtrlRetry(to topology.NodeID, kind msg.Kind, iid msg.InterestID, id msg.MsgID) {
	if i := n.findCtrlRetry(to, kind, iid, id); i >= 0 {
		n.retries = append(n.retries[:i], n.retries[i+1:]...)
	}
}

// scheduleCtrlRetry arms the next retransmission of a failed control
// message with capped exponential backoff, up to ctrlRetryLimit retries.
func (n *node) scheduleCtrlRetry(to topology.NodeID, m msg.Message) {
	i := n.findCtrlRetry(to, m.Kind, m.Interest, m.ID)
	if i < 0 {
		n.retries = append(n.retries, ctrlRetry{to: to, kind: m.Kind, iid: m.Interest, id: m.ID})
		i = len(n.retries) - 1
	}
	r := &n.retries[i]
	r.attempts++
	r.at = n.now()
	if r.attempts > ctrlRetryLimit {
		return // budget exhausted; the periodic protocol machinery takes over
	}
	n.armCtrl(min(ctrlRetryBase<<(r.attempts-1), ctrlRetryMax), to, m)
}

// ctrlRetryFire re-sends a control message if — and only if — the decision
// it carries still stands; states moves on during the backoff (repair
// switched upstreams, gradients expired, cheaper costs were found), and a
// stale retransmission must not resurrect it.
func (n *node) ctrlRetryFire(to topology.NodeID, m msg.Message) {
	st := n.interests.get(m.Interest)
	if st == nil {
		return
	}
	e := st.entries.get(m.ID)
	if e == nil {
		return
	}
	switch m.Kind {
	case msg.KindReinforce:
		if !e.HasChosen || e.Chosen != to {
			return
		}
	case msg.KindIncCost:
		live := false
		for _, nbr := range n.dataGradients(st) {
			if nbr == to {
				live = true
				break
			}
		}
		if !live {
			return
		}
		// Refresh C to the current value: incremental cost is monotone
		// non-increasing per stream, and the current value is the lowest this
		// node has announced, so the retry can never raise it.
		if m.Origin == n.id {
			if !e.hasSentC {
				return
			}
			m.C = e.sentC
		} else {
			if !e.hasFwdC {
				return
			}
			m.C = e.fwdC
		}
	default:
		return
	}
	n.rt.repair.CtrlRetries++
	n.unicast(to, m)
}

// --- data-silence watchdog ---------------------------------------------------

// healingPass is the repair-enabled replacement for repairPass's scan: the
// same on-tree walk, but with link-quality-aware candidate selection, probe
// fallback, and a degradation window on the interest while repair runs.
func (n *node) healingPass() {
	now := n.now()
	for _, ie := range n.interests.es {
		iid, st := ie.key, ie.val
		onTree := (n.isSink && iid == n.sinkInterest) || n.hasDataGradient(st)
		if !onTree {
			continue
		}
		for _, ee := range st.entries.es {
			e := ee.val
			if e.skeleton || e.Origin == n.id {
				continue
			}
			if now-e.created > EntryTTL {
				continue // too stale even for repair; floods will rebuild
			}
			if e.repairing && !e.HasChosen {
				// A previous repair found no usable candidate; retry with
				// whatever the probe replies brought in.
				st.repairingUntil = now + silenceThreshold
				n.tryRepairReinforce(st, e)
				continue
			}
			if !e.HasChosen || now-e.chosenAt < silenceThreshold {
				continue
			}
			// Repair keys on the *source* going silent, not on which upstream
			// carries it: truncation legitimately reroutes a source's items
			// through a sibling branch.
			if last := st.srcSeen.ref(e.Origin); last != nil && now-*last < silenceThreshold {
				continue
			}
			n.repairEntry(st, e)
		}
	}
}

// repairEntry performs one localized repair: give up on the silent chosen
// upstream, sideline link-quality suspects, and re-reinforce the next-best
// cached gradient copy — probing for fresh candidates when none remains.
func (n *node) repairEntry(st *interestState, e *entryState) {
	now := n.now()
	n.rt.repair.WatchdogFires++
	n.rt.traceRepair(n.id, e.Chosen, st.id, e.ID, e.Origin)
	if e.excluded == nil {
		e.excluded = make(map[topology.NodeID]bool)
	}
	e.excluded[e.Chosen] = true
	// Sideline neighbors the estimator currently distrusts — but never let
	// soft evidence exclude every candidate, or the rotation would wedge on
	// opinions instead of outcomes.
	added := n.rt.sc.lqDrop[:0]
	for i := range e.Copies {
		nbr := e.Copies[i].Nbr
		if e.excluded[nbr] {
			continue
		}
		if n.lq.quality(nbr, now) < minLinkQuality {
			e.excluded[nbr] = true
			added = append(added, nbr)
		}
	}
	n.rt.sc.lqDrop = added
	if len(added) > 0 && !e.HasAlternative(e.excluded) {
		for _, nbr := range added {
			delete(e.excluded, nbr)
		}
	}
	e.HasChosen = false
	e.repairing = true
	st.repairingUntil = now + silenceThreshold
	n.tryRepairReinforce(st, e)
}

// tryRepairReinforce attempts the localized re-reinforcement and falls back
// to a scoped re-exploration probe when no candidate is left.
func (n *node) tryRepairReinforce(st *interestState, e *entryState) {
	n.reinforceEntry(st, e)
	if e.HasChosen {
		e.repairing = false
		n.rt.repair.Reinforces++
		return
	}
	if e.probedAt != 0 && n.now()-e.probedAt >= probeCooldown &&
		!e.HasAlternative(e.excluded) {
		// The probe had its window and brought nothing usable; restart the
		// rotation so even the original choice (perhaps rebooted by now) can
		// be retried.
		clear(e.excluded)
	}
	n.probeEntry(st, e)
}

// probeEntry broadcasts a scoped re-exploration request for one entry:
// neighbors holding a live exploratory copy answer with a unicast refresh,
// repopulating the candidate set without waiting for the next network-wide
// exploratory flood (up to exploratoryPeriod away).
func (n *node) probeEntry(st *interestState, e *entryState) {
	now := n.now()
	if e.probedAt != 0 && now-e.probedAt < probeCooldown {
		return
	}
	e.probedAt = now
	n.rt.repair.Probes++
	n.broadcast(msg.Message{
		Kind:     msg.KindRepairProbe,
		Interest: st.id,
		ID:       e.ID,
		Origin:   e.Origin,
		Bytes:    msg.ControlBytes,
	})
}

// onRepairProbe answers a neighbor's scoped re-exploration request with a
// unicast exploratory refresh at this node's best known cost — the same
// message a fresh flood copy would have carried, so the prober's normal
// exploratory path records it. Nodes mid-repair for the same entry stay
// quiet: they would only advertise the broken path they are escaping.
func (n *node) onRepairProbe(from topology.NodeID, m msg.Message) {
	if !n.rt.params.Repair.Enabled {
		return
	}
	st := n.interests.get(m.Interest)
	if st == nil {
		return
	}
	e := st.entries.get(m.ID)
	if e == nil || e.skeleton || !e.HasE || e.repairing {
		return
	}
	n.rt.repair.ProbeReplies++
	n.unicast(from, msg.Message{
		Kind:     msg.KindExploratory,
		Interest: m.Interest,
		ID:       e.ID,
		Origin:   e.Origin,
		E:        e.BestE,
		Items:    []msg.Item{e.Item},
		Bytes:    msg.EventBytes,
	})
}

// --- graceful data-path degradation ------------------------------------------

// sendDataHealing is flush's repair-enabled send stage: skip gradients the
// estimator distrusts when a trusted one exists, and while repair is in
// flight fall back to one opportunistic broadcast instead of dropping the
// aggregate on the floor.
func (n *node) sendDataHealing(st *interestState, grads []topology.NodeID, items []msg.Item, w int) {
	now := n.now()
	out := msg.Message{
		Kind:     msg.KindData,
		Interest: st.id,
		Origin:   n.id,
		Items:    items,
		W:        w,
		Bytes:    n.rt.params.Agg.Size(len(items)),
	}
	healthy := n.rt.sc.healthy[:0]
	for _, nbr := range grads {
		if n.lq.quality(nbr, now) >= minLinkQuality {
			healthy = append(healthy, nbr)
		}
	}
	n.rt.sc.healthy = healthy
	targets := grads
	if len(healthy) > 0 {
		targets = healthy
	}
	if len(targets) > 0 {
		for _, nbr := range targets {
			n.unicast(nbr, out)
		}
		return
	}
	if now < st.repairingUntil {
		n.rt.repair.FallbackBroadcasts++
		n.broadcast(out)
		return
	}
	// No gradients and no repair in flight: the data dies here, exactly as
	// in the baseline path.
}

// rebufferData re-queues the items of a data unicast the MAC abandoned, so
// traffic generated during an outage survives until the path heals instead
// of dying at the break. The retry is delayed one data period — a broken
// link fails in milliseconds, so an immediate retry would just spin — and
// items older than the retention bound are dropped at requeue time.
func (n *node) rebufferData(m msg.Message) {
	now := n.now()
	young := false
	for _, it := range m.Items {
		if now-time.Duration(it.GenTime) < dataRetention {
			young = true
			break
		}
	}
	if !young {
		return
	}
	n.rt.repair.DataRebuffers++
	n.armMsg(DataPeriod, tkDataRetry, nil, m)
}

// dataRetryFire re-injects the still-young items of a rebuffered aggregate
// into the aggregation buffer; they flow out on whatever gradients exist by
// then — possibly the repaired ones.
func (n *node) dataRetryFire(m msg.Message) {
	st := n.interests.get(m.Interest)
	if st == nil {
		return
	}
	now := n.now()
	keep := make([]msg.Item, 0, len(m.Items))
	for _, it := range m.Items {
		if now-time.Duration(it.GenTime) < dataRetention {
			keep = append(keep, it)
		}
	}
	if len(keep) == 0 {
		return
	}
	n.addPending(st, contribution{from: n.id, items: keep, w: m.W, newItems: keep})
}

// pruneRepairState is the layer's share of prunePass: expire retransmission
// records and stale link-quality entries.
func (n *node) pruneRepairState(now time.Duration) {
	kept := n.retries[:0]
	for _, r := range n.retries {
		if now-r.at <= DataCacheTTL {
			kept = append(kept, r)
		}
	}
	n.retries = kept
	n.lq.prune(now, 4*qualityTTL)
}

// traceRepair records an OpRepair event: node gave up on upstream peer for
// the entry (iid, id, origin). The chaos invariant checker keys its
// repair-grace rule on these.
func (rt *Runtime) traceRepair(node, peer topology.NodeID, iid msg.InterestID, id msg.MsgID, origin topology.NodeID) {
	if rt.tracer == nil {
		return
	}
	rt.tracer.Record(trace.Event{
		At:       rt.kernel.Now(),
		Op:       trace.OpRepair,
		Node:     node,
		Peer:     peer,
		Kind:     msg.KindReinforce,
		Interest: iid,
		ID:       id,
		Origin:   origin,
	})
}
