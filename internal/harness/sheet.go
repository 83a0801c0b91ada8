package harness

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"repro/internal/diffusion"
	"repro/internal/msg"
	"repro/internal/stats"
)

// Row aggregates one data point of a kernel figure — one series at one x —
// over the sampled fields: the paper's panels, the lineage-derived latency
// and depth, and the fault, repair, mobility and kernel totals the
// robustness, dynamics and scale figures add. A run fills every part that
// applies to it; each figure's columns read the part it reports.
type Row struct {
	// Series is the row's ledger series key: the scheme, or the
	// "scenario/scheme" and "scenario/repair=bool" pairs of the grids.
	// Scheme, Scenario and Repair are its parts; X is the sweep coordinate
	// (node count, sink count, source count or timer value).
	Series   string
	Scheme   string
	Scenario string
	Repair   bool
	X        int
	// Density is the mean radio degree (the paper's x-axis for Figures
	// 5-7). Energy is the paper's average dissipated energy (J/node/event)
	// and CommEnergy its tx+rx component (see DESIGN.md); Delay is seconds
	// per received distinct event and Ratio the distinct-event delivery
	// ratio.
	Density    stats.Sample
	Energy     stats.Sample
	CommEnergy stats.Sample
	Delay      stats.Sample
	Ratio      stats.Sample
	// DelayP50/P95/P99 are per-field latency percentiles over individual
	// sample deliveries (lineage-derived, not per-event means). Depth is the
	// per-field mean delivered hop count; MaxDepth the deepest delivery.
	DelayP50 stats.Sample
	DelayP95 stats.Sample
	DelayP99 stats.Sample
	Depth    stats.Sample
	MaxDepth int
	// Recovery under faults: TTR is the per-run mean seconds to first
	// post-fault delivery (runs with a repaired fault only) and MaxTTR the
	// slowest repair; Dip is the delivery-rate dip depth after faults,
	// Availability the fraction of one-second buckets with a delivery, and
	// OutageSeconds the merged outage time.
	TTR           stats.Sample
	MaxTTR        float64
	Dip           stats.Sample
	Availability  stats.Sample
	OutageSeconds stats.Sample
	// Totals over all fields: fault events, crashes, invariant violations,
	// links cut by asymmetric loss, topology faults, and the events
	// generated and estimated lost during outages.
	Faults            int
	Crashes           int
	Violations        int
	LinkLoss          int
	TopoFaults        int
	GeneratedInOutage int
	LostInOutage      int
	// Repair-message overhead summed over fields: probes on air plus the
	// layer's own counters (zero with the repair layer off).
	ProbesSent  int
	RepairStats diffusion.RepairStats
	// MeanSpeed is the per-run network mean node speed (m/s; no samples
	// without movement). BucketCommJ samples per-run mean communication
	// energy per speed bucket (metrics.DefaultSpeedBounds; the last bucket
	// is overflow), from buckets that held nodes.
	MeanSpeed   stats.Sample
	BucketCommJ []stats.Sample
	LinkChanges int
	Joins       int
	Departures  int
	// Events and WallTime (seconds) sum the row's kernel costs.
	// PeakHeapBytes is the largest per-run in-use heap reading
	// (obs.HeapFootprintBytes); the scale figure settles the heap at each
	// rung start, so there it is the rung's own footprint, not a process
	// high-water mark. Ledger replays restore the original reading.
	Events        uint64
	WallTime      float64
	PeakHeapBytes uint64
}

// absorb folds one run into the row.
func (r *Row) absorb(lo LedgerOutput) {
	m := lo.Metrics
	r.Density = append(r.Density, lo.Density)
	r.Energy = append(r.Energy, m.AvgDissipatedEnergy)
	r.CommEnergy = append(r.CommEnergy, m.AvgCommEnergy)
	r.Delay = append(r.Delay, m.AvgDelay)
	r.Ratio = append(r.Ratio, m.DeliveryRatio)
	r.DelayP50 = append(r.DelayP50, m.DelayP50)
	r.DelayP95 = append(r.DelayP95, m.DelayP95)
	r.DelayP99 = append(r.DelayP99, m.DelayP99)
	r.Depth = append(r.Depth, m.MeanDepth)
	r.MaxDepth = max(r.MaxDepth, m.MaxDepth)
	r.Events += lo.Kernel.Events
	r.WallTime += lo.Kernel.WallTime.Seconds()
	r.PeakHeapBytes = max(r.PeakHeapBytes, lo.PeakHeap)
	r.ProbesSent += lo.Sent[msg.KindRepairProbe]
	if rs := lo.Repair; rs != nil {
		r.RepairStats.WatchdogFires += rs.WatchdogFires
		r.RepairStats.Reinforces += rs.Reinforces
		r.RepairStats.Probes += rs.Probes
		r.RepairStats.ProbeReplies += rs.ProbeReplies
		r.RepairStats.CtrlRetries += rs.CtrlRetries
		r.RepairStats.DataRebuffers += rs.DataRebuffers
		r.RepairStats.FallbackBroadcasts += rs.FallbackBroadcasts
	}
	if mob := lo.Mobility; mob != nil {
		r.LinkChanges += mob.LinkChanges
		r.Joins += mob.Joins
		r.Departures += mob.Departures
		if mob.Epochs > 0 {
			r.MeanSpeed = append(r.MeanSpeed, mob.MeanSpeed)
		}
		if r.BucketCommJ == nil {
			r.BucketCommJ = make([]stats.Sample, len(mob.SpeedBuckets))
		}
		for i, b := range mob.SpeedBuckets {
			if i < len(r.BucketCommJ) && b.Nodes > 0 {
				r.BucketCommJ[i] = append(r.BucketCommJ[i], b.MeanCommJ)
			}
		}
	}
	rep := lo.Chaos
	if rep == nil {
		return
	}
	r.Violations += rep.ViolationCount
	r.Crashes += rep.Crashes
	r.LinkLoss += rep.LinkLoss
	r.TopoFaults += rep.TopologyFaults
	if rec := rep.Recovery; rec != nil {
		r.Faults += rec.Faults
		r.Availability = append(r.Availability, rec.Availability)
		r.OutageSeconds = append(r.OutageSeconds, rec.OutageTime.Seconds())
		r.GeneratedInOutage += rec.GeneratedDuringOutage
		r.LostInOutage += rec.LostDuringOutage
		if rec.Repaired > 0 {
			r.TTR = append(r.TTR, rec.MeanTimeToRepair.Seconds())
			r.MaxTTR = max(r.MaxTTR, rec.MaxTimeToRepair.Seconds())
		}
		if rec.Faults > 0 {
			r.Dip = append(r.Dip, rec.MeanDipDepth)
		}
	}
}

// BytesPerNode returns the row's peak heap divided by its population (X, on
// the scale figure) — the per-node memory cost the SoA and receiver-set
// work exists to bound.
func (r *Row) BytesPerNode() uint64 {
	if r.X <= 0 {
		return 0
	}
	return r.PeakHeapBytes / uint64(r.X)
}

// EventsPerSec returns the row's kernel throughput per wall-clock second.
func (r *Row) EventsPerSec() float64 {
	if r.WallTime <= 0 {
		return 0
	}
	return float64(r.Events) / r.WallTime
}

// bucket returns the mean communication energy of speed bucket i, zero
// when no run reported it.
func (r *Row) bucket(i int) float64 {
	if i >= len(r.BucketCommJ) {
		return 0
	}
	return r.BucketCommJ[i].Mean()
}

// violations sums invariant breaches over rows, or over the repair-on rows
// only.
func violations(rows []Row, repairOnly bool) int {
	n := 0
	for _, r := range rows {
		if r.Repair || !repairOnly {
			n += r.Violations
		}
	}
	return n
}

// column is one CSV column: its header name and the value a row prints
// there (with %v, so floats print as %g).
type column[R any] struct {
	name string
	val  func(*R) any
}

// meanCI returns the <name>_mean and <name>_ci columns of a sample.
func meanCI[R any](name string, sample func(*R) stats.Sample) []column[R] {
	return []column[R]{
		{name + "_mean", func(r *R) any { return sample(r).Mean() }},
		{name + "_ci", func(r *R) any { return sample(r).CI95() }},
	}
}

// Column groups several figures share.
var (
	// panelCols are the paper's panels in the grids' order.
	panelCols = slices.Concat(
		meanCI("ratio", func(r *Row) stats.Sample { return r.Ratio }),
		meanCI("delay", func(r *Row) stats.Sample { return r.Delay }),
		meanCI("energy", func(r *Row) stats.Sample { return r.Energy }))
	ttrCols = []column[Row]{
		{"ttr_mean_s", func(r *Row) any { return r.TTR.Mean() }},
		{"ttr_ci", func(r *Row) any { return r.TTR.CI95() }},
	}
	lineageCols = []column[Row]{
		{"delay_p50", func(r *Row) any { return r.DelayP50.Mean() }},
		{"delay_p95", func(r *Row) any { return r.DelayP95.Mean() }},
		{"delay_p99", func(r *Row) any { return r.DelayP99.Mean() }},
		{"depth_mean", func(r *Row) any { return r.Depth.Mean() }},
		{"depth_max", func(r *Row) any { return r.MaxDepth }},
	}
)

// Sheet is what every table shares: its run record (embedded, so each
// table's Manifest is RunMeta.Manifest), its rows, and the columns its CSV
// writes.
type Sheet[R any] struct {
	*RunMeta
	Rows []R
	cols []column[R]
	note string // leading "# " comment line of the CSV, if any
}

// CSV writes the table in long form: a header of the figure column, the
// table's own columns and the fields column, then one line per row.
func (s *Sheet[R]) CSV(w io.Writer) error {
	var b bytes.Buffer
	if s.note != "" {
		fmt.Fprintf(&b, "# %s\n", s.note)
	}
	b.WriteString("figure")
	for _, c := range s.cols {
		b.WriteString("," + c.name)
	}
	b.WriteString(",fields\n")
	for i := range s.Rows {
		b.WriteString(s.Figure)
		for _, c := range s.cols {
			fmt.Fprintf(&b, ",%v", c.val(&s.Rows[i]))
		}
		fmt.Fprintf(&b, ",%d\n", s.Fields)
	}
	_, err := w.Write(b.Bytes())
	return err
}

// dash formats a sample mean for a text table, or "--" when the sample is
// empty.
func dash(s stats.Sample, width int) string {
	if len(s) == 0 {
		return fmt.Sprintf("%*s", width, "--")
	}
	return fmt.Sprintf("%*.2f", width, s.Mean())
}
