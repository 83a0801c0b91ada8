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

// installDropHook makes lost receptions visible: each drop of a protocol
// frame is recorded as an OpDrop trace event (when tracing) and counted per
// reason in the registry (when telemetry is on).
func installDropHook(network *mac.Network, kernel *sim.Kernel, tracer diffusion.Tracer,
	reg *obs.Registry, scheme string) {
	if tracer == nil && reg == nil {
		return
	}
	network.SetDropHook(dropHook(kernel, tracer, reg, scheme))
}

// dropHook builds the hook installDropHook installs. Each reason's
// mac_rx_drops{scheme,reason} counter is bound on that reason's first drop,
// so reasons that never occur leave no zero-valued entry in the snapshot,
// and every later drop of it is an array read and an increment.
func dropHook(kernel *sim.Kernel, tracer diffusion.Tracer, reg *obs.Registry, scheme string) mac.DropHook {
	var drops [mac.RxLinkLoss + 1]*obs.Counter // indexed by every reason mac defines
	return func(from, to topology.NodeID, f mac.Frame, reason mac.RxDropReason) {
		if _, ok := f.Payload.(msg.Message); !ok {
			return
		}
		if reg != nil {
			c := drops[reason]
			if c == nil {
				c = reg.Counter("mac_rx_drops", obs.Label{Key: "scheme", Value: scheme},
					obs.Label{Key: "reason", Value: reason.String()})
				drops[reason] = c
			}
			c.Inc()
		}
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

// bridgeStats folds the run's substrate counters into the registry so one
// snapshot carries protocol, MAC, and kernel telemetry together. Wall time
// stays out (it is in KernelStats): the snapshot holds only what the seed
// determines, so identical runs have identical digests (obs.Digest).
func bridgeStats(reg *obs.Registry, scheme string, ms mac.Stats, sent map[msg.Kind]int, ks KernelStats) {
	if reg == nil {
		return
	}
	l := obs.Label{Key: "scheme", Value: scheme}

	reg.Counter("mac_data_tx", l).Add(int64(ms.DataTx))
	reg.Counter("mac_ack_tx", l).Add(int64(ms.AckTx))
	reg.Counter("mac_rts_tx", l).Add(int64(ms.RtsTx))
	reg.Counter("mac_cts_tx", l).Add(int64(ms.CtsTx))
	reg.Counter("mac_delivered", l).Add(int64(ms.Delivered))
	reg.Counter("mac_collisions", l).Add(int64(ms.Collisions))
	reg.Counter("mac_retries", l).Add(int64(ms.Retries))
	reg.Counter("mac_backoffs", l).Add(int64(ms.Backoffs))
	reg.Counter("mac_acks_missing", l).Add(int64(ms.AcksMissing))
	reg.Counter("mac_link_loss", l).Add(int64(ms.LinkLoss))
	reg.Counter("mac_bytes_on_air", l).Add(ms.BytesOnAir)
	for reason, v := range ms.Drops {
		reg.Counter("mac_tx_drops", l,
			obs.Label{Key: "reason", Value: reason.String()}).Add(int64(v))
	}

	for kind, v := range sent {
		reg.Counter("protocol_sent", l,
			obs.Label{Key: "kind", Value: kind.String()}).Add(int64(v))
	}

	reg.Counter("sim_events", l).Add(int64(ks.Events))
	reg.Gauge("sim_queue_highwater", l).Set(float64(ks.QueueHighWater))
}

// bridgeRepair folds the self-healing layer's counters into the registry.
// Only called when repair actually ran, so repair-off runs keep their
// telemetry snapshot (and the goldens over it) byte-identical.
func bridgeRepair(reg *obs.Registry, scheme string, rs diffusion.RepairStats) {
	if reg == nil {
		return
	}
	l := obs.Label{Key: "scheme", Value: scheme}
	reg.Counter("repair_watchdog_fires", l).Add(int64(rs.WatchdogFires))
	reg.Counter("repair_reinforces", l).Add(int64(rs.Reinforces))
	reg.Counter("repair_probes", l).Add(int64(rs.Probes))
	reg.Counter("repair_probe_replies", l).Add(int64(rs.ProbeReplies))
	reg.Counter("repair_ctrl_retries", l).Add(int64(rs.CtrlRetries))
	reg.Counter("repair_data_rebuffers", l).Add(int64(rs.DataRebuffers))
	reg.Counter("repair_fallback_broadcasts", l).Add(int64(rs.FallbackBroadcasts))
}
