// Package metrics implements the paper's three evaluation metrics (§5.1):
//
//   - Average dissipated energy: total dissipated energy per node divided by
//     the number of distinct events received by sinks (J/node/event).
//   - Average delay: mean one-way latency between an event's generation at a
//     source and its first reception at each sink.
//   - Distinct-event delivery ratio: distinct events received over distinct
//     events sent, averaged over sinks.
//
// A Collector observes the diffusion runtime during a measurement window
// (after a warm-up transient) and is combined with energy meters at the end
// of a run.
package metrics

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/msg"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Collector accumulates workload events. It implements diffusion.Observer.
// Only events inside the measurement window [From, To) are counted; zero
// bounds disable the respective cut.
type Collector struct {
	// From is the start of the measurement window (warm-up cutoff).
	From time.Duration
	// To is the end of the measurement window; 0 means unbounded.
	To time.Duration
	// Clock supplies the current virtual time (the kernel's Now).
	Clock func() time.Duration

	generated map[msg.ItemKey]bool
	delivered map[topology.NodeID]map[msg.ItemKey]bool
	delaySum  time.Duration
	delayN    int

	// delays and hops record every counted delivery's end-to-end latency and
	// lineage hop count, for the percentile and tree-depth summaries; fanMax
	// is the widest aggregation merge any delivered item passed through.
	delays []time.Duration
	hops   []int
	fanMax int
}

// NewCollector returns a collector counting events generated and delivered
// within [from, to) according to clock.
func NewCollector(from, to time.Duration, clock func() time.Duration) *Collector {
	if clock == nil {
		panic("metrics: nil clock")
	}
	return &Collector{
		From:      from,
		To:        to,
		Clock:     clock,
		generated: make(map[msg.ItemKey]bool),
		delivered: make(map[topology.NodeID]map[msg.ItemKey]bool),
	}
}

func (c *Collector) inWindow(t time.Duration) bool {
	return t >= c.From && (c.To == 0 || t < c.To)
}

// Generated implements diffusion.Observer.
func (c *Collector) Generated(src topology.NodeID, item msg.Item) {
	if !c.inWindow(c.Clock()) {
		return
	}
	c.generated[item.Key()] = true
}

// Delivered implements diffusion.Observer. Deliveries of events generated
// outside the window are ignored so the numerator and denominator describe
// the same population.
func (c *Collector) Delivered(sink topology.NodeID, item msg.Item, delay time.Duration) {
	if !c.generated[item.Key()] {
		return
	}
	m := c.delivered[sink]
	if m == nil {
		m = make(map[msg.ItemKey]bool)
		c.delivered[sink] = m
	}
	if m[item.Key()] {
		return // duplicate: distinct events count once per sink
	}
	m[item.Key()] = true
	c.delaySum += delay
	c.delayN++
	c.delays = append(c.delays, delay)
	c.hops = append(c.hops, int(item.Hops))
	if f := int(item.FanIn); f > c.fanMax {
		c.fanMax = f
	}
}

// GeneratedCount returns the number of distinct events generated in-window.
func (c *Collector) GeneratedCount() int { return len(c.generated) }

// DeliveredCount returns the total distinct deliveries summed over sinks.
func (c *Collector) DeliveredCount() int {
	total := 0
	for _, m := range c.delivered {
		total += len(m)
	}
	return total
}

// Result is a run's metric values.
type Result struct {
	// Scheme labels the strategy ("greedy", "opportunistic").
	Scheme string
	// Nodes is the field size; Density its mean radio degree.
	Nodes   int
	Density float64

	// GeneratedEvents and DeliveredEvents are distinct-event counts
	// (deliveries summed over sinks).
	GeneratedEvents int
	DeliveredEvents int

	// AvgDissipatedEnergy is (total energy / nodes) / delivered events, the
	// paper's headline metric, in J/node/event. AvgCommEnergy is the same
	// ratio restricted to tx+rx energy (see DESIGN.md on the idle floor).
	AvgDissipatedEnergy float64
	AvgCommEnergy       float64

	// AvgDelay is seconds per received distinct event.
	AvgDelay float64

	// DelayP50/P95/P99 are nearest-rank percentiles (seconds) of the same
	// per-delivery latency population AvgDelay averages.
	DelayP50 float64
	DelayP95 float64
	DelayP99 float64

	// MeanDepth and MaxDepth summarize delivered items' lineage hop counts —
	// the effective aggregation-tree depth observed at the sinks. MaxFanIn is
	// the widest aggregation merge any delivered item passed through.
	MeanDepth float64
	MaxDepth  int
	MaxFanIn  int

	// DeliveryRatio is distinct received / distinct sent, averaged over
	// sinks.
	DeliveryRatio float64

	// TotalEnergy and CommEnergy are network-wide joules, for debugging and
	// ablations.
	TotalEnergy float64
	CommEnergy  float64

	// Concentration describes how unevenly the communication energy is
	// spread over nodes — §3's traffic-concentration concern: a shared
	// aggregation tree works its trunk nodes harder, which bounds network
	// lifetime by the hottest node.
	Concentration Concentration

	// Recovery summarizes fault recovery when the run injected faults
	// through the chaos layer; nil otherwise.
	Recovery *Recovery
}

// Concentration summarizes the per-node communication-energy distribution.
type Concentration struct {
	// MaxNodeJ is the hottest node's tx+rx energy in joules; MeanNodeJ the
	// network mean. PeakToMean is their ratio (1 = perfectly even).
	MaxNodeJ   float64
	MeanNodeJ  float64
	PeakToMean float64
}

// NewConcentration computes the distribution summary from per-node
// communication energies.
func NewConcentration(perNodeCommJ []float64) Concentration {
	var c Concentration
	if len(perNodeCommJ) == 0 {
		return c
	}
	var sum float64
	for _, v := range perNodeCommJ {
		sum += v
		if v > c.MaxNodeJ {
			c.MaxNodeJ = v
		}
	}
	c.MeanNodeJ = sum / float64(len(perNodeCommJ))
	if c.MeanNodeJ > 0 {
		c.PeakToMean = c.MaxNodeJ / c.MeanNodeJ
	}
	return c
}

// Finalize combines the collector with the run's energy totals. sinks is
// the number of sinks in the workload (the delivery ratio normalizes by
// it); totalJ and commJ are summed over all nodes for the measurement
// window.
func (c *Collector) Finalize(scheme string, nodes int, density float64, sinks int,
	totalJ, commJ float64) (Result, error) {
	if sinks <= 0 {
		return Result{}, fmt.Errorf("metrics: non-positive sink count %d", sinks)
	}
	if nodes <= 0 {
		return Result{}, fmt.Errorf("metrics: non-positive node count %d", nodes)
	}
	r := Result{
		Scheme:          scheme,
		Nodes:           nodes,
		Density:         density,
		GeneratedEvents: c.GeneratedCount(),
		DeliveredEvents: c.DeliveredCount(),
		TotalEnergy:     totalJ,
		CommEnergy:      commJ,
	}
	if r.DeliveredEvents > 0 {
		perNode := totalJ / float64(nodes)
		r.AvgDissipatedEnergy = perNode / float64(r.DeliveredEvents)
		r.AvgCommEnergy = (commJ / float64(nodes)) / float64(r.DeliveredEvents)
		r.AvgDelay = (c.delaySum / time.Duration(c.delayN)).Seconds()
	}
	if len(c.delays) > 0 {
		sorted := append([]time.Duration(nil), c.delays...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		r.DelayP50 = stats.NearestRank(sorted, 0.50).Seconds()
		r.DelayP95 = stats.NearestRank(sorted, 0.95).Seconds()
		r.DelayP99 = stats.NearestRank(sorted, 0.99).Seconds()
	}
	if len(c.hops) > 0 {
		sum := 0
		for _, h := range c.hops {
			sum += h
			if h > r.MaxDepth {
				r.MaxDepth = h
			}
		}
		r.MeanDepth = float64(sum) / float64(len(c.hops))
		r.MaxFanIn = c.fanMax
	}
	if r.GeneratedEvents > 0 {
		r.DeliveryRatio = float64(r.DeliveredEvents) / float64(r.GeneratedEvents*sinks)
	}
	return r, nil
}
