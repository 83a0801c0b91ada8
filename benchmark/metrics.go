package main

import (
	"fmt"

	"repro/internal/harness"
)

// metric is one reported number. Base, for a ratio or a per-unit cost,
// names what it was divided by and how large that was.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Base  string  `json:"base,omitempty"`
}

// endToEnd returns the untraced run's metrics.
func endToEnd(m *measurement) []metric {
	return []metric{
		{Name: "wall_s", Value: median(m.walls).Seconds(), Unit: "s"},
		{Name: "setup_s", Value: median(m.setup).Seconds(), Unit: "s"},
		{Name: "peak_rss_mb", Value: median(m.rss) / (1 << 20), Unit: "MB"},
	}
}

// telemetry totals the run registries of one pass: counters summed over
// cells and label sets, gauges at their largest, histograms as count and sum.
type telemetry struct {
	sum, max, count map[string]float64
}

func totalTelemetry(outs []harness.LedgerOutput) telemetry {
	t := telemetry{sum: map[string]float64{}, max: map[string]float64{}, count: map[string]float64{}}
	for _, lo := range outs {
		for _, m := range lo.Telemetry {
			switch m.Kind {
			case "counter":
				t.sum[m.Name] += m.Value
			case "gauge":
				t.max[m.Name] = max(t.max[m.Name], m.Max)
			case "histogram":
				t.sum[m.Name] += m.Sum
				t.count[m.Name] += float64(m.Count)
			}
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer returns the traced run's per-layer metrics: CPU self time and
// allocation per measured pass from the profiles, and the deterministic
// counts of the first pass from telemetry and the chaos and mobility
// reports.
func perLayer(m *measurement) []metric {
	passes := float64(len(m.tracedWalls))
	self := func(layer string) float64 { return m.cpu[layer] / 1e9 / passes }
	wall := median(m.walls).Seconds()

	t := totalTelemetry(m.first)
	events := t.sum["sim_events"]
	frames := t.sum["mac_data_tx"] + t.sum["mac_ack_tx"] + t.sum["mac_rts_tx"] + t.sum["mac_cts_tx"]
	delivered := t.sum["mac_delivered"]
	heard := delivered + t.sum["mac_collisions"] + t.sum["mac_link_loss"]
	drops := t.sum["mac_rx_drops"]
	sends := t.sum["protocol_sent"]
	hits := t.sum["diffusion_gradient_cache_hits"]
	lookups := hits + t.sum["diffusion_gradient_cache_misses"]
	calls := t.sum["diffusion_setcover_calls"]
	coverIn := t.sum["diffusion_setcover_input_size"]
	coverN := t.count["diffusion_setcover_input_size"]

	var linkChanges, violations, topoFaults, observed float64
	for _, lo := range m.first {
		if mob := lo.Mobility; mob != nil {
			linkChanges += float64(mob.LinkChanges)
		}
		if c := lo.Chaos; c != nil {
			violations += float64(c.ViolationCount)
			topoFaults += float64(c.TopologyFaults)
		}
		observed += float64(lo.Metrics.GeneratedEvents + lo.Metrics.DeliveredEvents)
	}

	total, other := m.cpu["total"], m.cpu["other"]
	ms := []metric{
		{Name: "sim.self_s", Value: self("sim"), Unit: "s"},
		{Name: "sim.heap.self_s", Value: self("sim.heap"), Unit: "s"},
		{Name: "sim.events", Value: events, Unit: "count"},
		{Name: "sim.events_per_s", Value: ratio(events, wall), Unit: "1/s",
			Base: fmt.Sprintf("%.0f events in %.4f s wall_s", events, wall)},
		{Name: "sim.ns_per_event", Value: ratio(wall*1e9, events), Unit: "ns",
			Base: fmt.Sprintf("%.4f s wall_s over %.0f events", wall, events)},
		{Name: "sim.queue_highwater", Value: t.max["sim_queue_highwater"], Unit: "count"},

		{Name: "mac.self_s", Value: self("mac"), Unit: "s"},
		{Name: "mac.rxset.self_s", Value: self("mac.rxset"), Unit: "s"},
		{Name: "mac.frames", Value: frames, Unit: "count"},
		{Name: "mac.delivered", Value: delivered, Unit: "count"},
		{Name: "mac.collisions", Value: t.sum["mac_collisions"], Unit: "count"},
		{Name: "mac.retries", Value: t.sum["mac_retries"], Unit: "count"},
		{Name: "mac.backoffs", Value: t.sum["mac_backoffs"], Unit: "count"},
		{Name: "mac.rx_useful_ratio", Value: ratio(delivered, heard), Unit: "ratio",
			Base: fmt.Sprintf("%.0f delivered of %.0f delivered+collisions+link_loss", delivered, heard)},
		{Name: "mac.ns_per_frame", Value: ratio(self("mac")*1e9, frames), Unit: "ns",
			Base: fmt.Sprintf("mac self time over %.0f frames", frames)},

		{Name: "obs.self_s", Value: self("obs"), Unit: "s"},
		{Name: "obs.rx_drops", Value: drops, Unit: "count"},
		{Name: "obs.ns_per_drop", Value: ratio(self("obs")*1e9, drops), Unit: "ns",
			Base: fmt.Sprintf("obs self time over %.0f rx drops", drops)},

		{Name: "diffusion.self_s", Value: self("diffusion"), Unit: "s"},
		{Name: "diffusion.tables.self_s", Value: self("diffusion.tables"), Unit: "s"},
		{Name: "diffusion.sends", Value: sends, Unit: "count"},
		{Name: "diffusion.exploratory_floods", Value: t.sum["diffusion_exploratory_floods"], Unit: "count"},
		{Name: "diffusion.gradient_cache_hit_ratio", Value: ratio(hits, lookups), Unit: "ratio",
			Base: fmt.Sprintf("%.0f hits of %.0f lookups", hits, lookups)},
		{Name: "diffusion.ns_per_send", Value: ratio(self("diffusion")*1e9, sends), Unit: "ns",
			Base: fmt.Sprintf("diffusion self time over %.0f sends", sends)},
		{Name: "repair.ctrl_retries", Value: t.sum["repair_ctrl_retries"], Unit: "count"},
		{Name: "repair.probes", Value: t.sum["repair_probes"], Unit: "count"},

		{Name: "setcover.self_s", Value: self("setcover"), Unit: "s"},
		{Name: "setcover.calls", Value: calls, Unit: "count"},
		{Name: "setcover.mean_input", Value: ratio(coverIn, coverN), Unit: "count",
			Base: fmt.Sprintf("%.0f candidates over %.0f calls", coverIn, coverN)},
		{Name: "setcover.us_per_call", Value: ratio(self("setcover")*1e6, calls), Unit: "us",
			Base: fmt.Sprintf("setcover self time over %.0f calls", calls)},

		{Name: "topology.self_s", Value: self("topology"), Unit: "s"},
		{Name: "topology.mobility.self_s", Value: self("topology.mobility"), Unit: "s"},
		{Name: "topology.link_changes", Value: linkChanges, Unit: "count"},

		{Name: "chaos.self_s", Value: self("chaos"), Unit: "s"},
		{Name: "chaos.violations", Value: violations, Unit: "count"},
		{Name: "chaos.topology_faults", Value: topoFaults, Unit: "count"},

		{Name: "metrics.self_s", Value: self("metrics"), Unit: "s"},
		{Name: "metrics.observer_calls", Value: observed, Unit: "count"},

		{Name: "energy.self_s", Value: self("energy"), Unit: "s"},
		{Name: "msg.self_s", Value: self("msg"), Unit: "s"},
		{Name: "core.self_s", Value: self("core"), Unit: "s"},
		{Name: "harness.self_s", Value: self("harness"), Unit: "s"},
		{Name: "gc.self_s", Value: self("gc"), Unit: "s"},
	}
	for _, layer := range []string{"sim", "mac", "diffusion", "setcover", "obs", "topology"} {
		ms = append(ms, metric{Name: layer + ".alloc_mb", Value: m.alloc[layer] / (1 << 20), Unit: "MB"})
	}
	traced := median(m.tracedWalls).Seconds()
	return append(ms,
		metric{Name: "trace.coverage", Value: ratio(total-other, total), Unit: "ratio",
			Base: fmt.Sprintf("%.2f of %.2f profiled CPU s in a layer or gc", (total-other)/1e9, total/1e9)},
		metric{Name: "trace.overhead", Value: ratio(traced, wall) - 1, Unit: "ratio",
			Base: fmt.Sprintf("median traced pass %.4f s over untraced %.4f s", traced, wall)},
	)
}
