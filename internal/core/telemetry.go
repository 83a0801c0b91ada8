package core

import (
	"time"

	"repro/internal/diffusion"
	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// KernelStats summarizes the event loop of one run. It is always filled in
// Output, with or without telemetry, since the kernel counts for free.
type KernelStats struct {
	// Events is the number of events the kernel fired.
	Events uint64
	// QueueHighWater is the deepest the event queue ever got.
	QueueHighWater int
	// WallTime is the real time Run spent, setup through teardown.
	WallTime time.Duration
}

// EventsPerSec returns the wall-clock event throughput.
func (k KernelStats) EventsPerSec() float64 {
	if k.WallTime <= 0 {
		return 0
	}
	return float64(k.Events) / k.WallTime.Seconds()
}

// rxDropReason maps a MAC reception-drop classification onto the trace
// vocabulary.
func rxDropReason(r mac.RxDropReason) trace.DropReason {
	switch r {
	case mac.RxCollision:
		return trace.DropCollision
	case mac.RxReceiverOff:
		return trace.DropReceiverOff
	case mac.RxSenderOff:
		return trace.DropSenderOff
	default:
		return trace.DropChaosLoss
	}
}

// rxDrops counts a run's lost protocol receptions by reason.
type rxDrops [mac.RxLinkLoss + 1]int // indexed by every reason mac defines

// dropHook returns the hook that makes lost receptions visible: each drop
// of a protocol frame is counted by reason into drops (an array increment)
// and, when tracing, recorded as an OpDrop trace event.
func dropHook(kernel *sim.Kernel, tracer diffusion.Tracer, drops *rxDrops) mac.DropHook {
	return func(from, to topology.NodeID, f mac.Frame, reason mac.RxDropReason) {
		if _, ok := f.Payload.(msg.Message); !ok {
			return
		}
		drops[reason]++
		if tracer == nil {
			return
		}
		m := f.Payload.(msg.Message)
		tracer.Record(trace.Event{
			At:       kernel.Now(),
			Op:       trace.OpDrop,
			Node:     to,
			Peer:     from,
			Kind:     m.Kind,
			Interest: m.Interest,
			ID:       m.ID,
			Origin:   m.Origin,
			Items:    len(m.Items),
			E:        m.E,
			C:        m.C,
			W:        m.W,
			Reason:   rxDropReason(reason),
		})
	}
}

// telemetry renders the run's snapshot, sorted by key, from the counters
// each layer kept. Every scheme gets the MAC counters, mac_tx_drops for
// every reason in the MAC's drop map (zeros included), protocol_sent for
// every kind in sent, sim_events and the sim_queue_highwater gauge. A
// diffusion scheme adds its nine protocol entries and mac_rx_drops for each
// reason its drop hook counted; a repair run adds the repair counters.
// Wall time stays out (it is in KernelStats): the snapshot holds only what
// the seed determines, so identical runs have identical digests
// (obs.Digest).
func (st *runState) telemetry(sent map[msg.Kind]int, ks KernelStats, repair *diffusion.RepairStats) ([]obs.Metric, error) {
	l := "scheme=" + st.cfg.Scheme.String()
	var out []obs.Metric
	add := func(name, labels string, v int) {
		out = append(out, obs.Metric{Name: name, Labels: labels, Kind: obs.KindCounter, Value: float64(v)})
	}

	ms := st.network.Stats()
	add("mac_data_tx", l, ms.DataTx)
	add("mac_ack_tx", l, ms.AckTx)
	add("mac_rts_tx", l, ms.RtsTx)
	add("mac_cts_tx", l, ms.CtsTx)
	add("mac_delivered", l, ms.Delivered)
	add("mac_collisions", l, ms.Collisions)
	add("mac_retries", l, ms.Retries)
	add("mac_backoffs", l, ms.Backoffs)
	add("mac_acks_missing", l, ms.AcksMissing)
	add("mac_link_loss", l, ms.LinkLoss)
	add("mac_bytes_on_air", l, int(ms.BytesOnAir))
	for reason, v := range ms.Drops {
		add("mac_tx_drops", "reason="+reason.String()+","+l, v)
	}
	for reason, v := range st.rxDrops {
		if v > 0 {
			add("mac_rx_drops", "reason="+mac.RxDropReason(reason).String()+","+l, v)
		}
	}
	for kind, v := range sent {
		add("protocol_sent", "kind="+kind.String()+","+l, v)
	}
	add("sim_events", l, int(ks.Events))
	hw := float64(ks.QueueHighWater)
	out = append(out, obs.Metric{Name: "sim_queue_highwater", Labels: l, Kind: obs.KindGauge, Value: hw, Max: hw})

	if st.rt != nil {
		c := st.rt.Counters()
		add("diffusion_gradient_cache_hits", l, c.GradientHits)
		add("diffusion_gradient_cache_misses", l, c.GradientMisses)
		add("diffusion_exploratory_floods", l, c.ExploratoryFloods)
		add("diffusion_inccost_sent", l, c.IncCostSent)
		add("diffusion_reinforce_sent", l, c.ReinforceSent)
		add("diffusion_truncation_prunes", l, c.TruncationPrunes)
		add("diffusion_setcover_calls", l, int(c.SetCoverInput.Count()))
		out = append(out, c.SetCoverInput.Metric("diffusion_setcover_input_size", l),
			c.CascadeLen.Metric("diffusion_reinforce_cascade_len", l))
	}

	if repair != nil {
		add("repair_watchdog_fires", l, repair.WatchdogFires)
		add("repair_reinforces", l, repair.Reinforces)
		add("repair_probes", l, repair.Probes)
		add("repair_probe_replies", l, repair.ProbeReplies)
		add("repair_ctrl_retries", l, repair.CtrlRetries)
		add("repair_data_rebuffers", l, repair.DataRebuffers)
		add("repair_fallback_broadcasts", l, repair.FallbackBroadcasts)
	}
	return obs.Merge(nil, out)
}
