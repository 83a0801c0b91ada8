package harness

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// ScaleNodes is the default node-count ladder for the scale figure; the
// quick preset stops after the first rung, and ScaleNodesBig is the opt-in
// extension (experiments -big) whose top rung needs several GB of heap.
var (
	ScaleNodes      = []int{500, 1000, 2000, 5000, 10000, 20000}
	ScaleNodesQuick = []int{500}
	ScaleNodesBig   = []int{50000}
)

// scaleBaseNodes/scaleBaseSide pin the paper's middle density (150 nodes on
// a 200 m square); the scale sweep grows the field with √nodes so every rung
// keeps that density and only the population changes.
const (
	scaleBaseNodes = 150
	scaleBaseSide  = 200.0
)

// scaleFieldSide returns the square side that holds the paper's middle
// density at the given node count.
func scaleFieldSide(nodes int) float64 {
	return scaleBaseSide * math.Sqrt(float64(nodes)/float64(scaleBaseNodes))
}

// ScaleTable is the regenerated scalability figure ("figscale"): one row
// per (nodes, scheme), X the node count.
type ScaleTable struct{ Sheet[Row] }

var scaleCols = slices.Concat([]column[Row]{
	{"nodes", func(r *Row) any { return r.X }},
	{"scheme", func(r *Row) any { return r.Scheme }},
	{"field_side_m", func(r *Row) any { return scaleFieldSide(r.X) }},
	{"density_mean", func(r *Row) any { return r.Density.Mean() }},
	{"events", func(r *Row) any { return r.Events }},
	{"wall_s", func(r *Row) any { return r.WallTime }},
	{"events_per_sec", func(r *Row) any { return r.EventsPerSec() }},
	{"peak_heap_bytes", func(r *Row) any { return r.PeakHeapBytes }},
	{"bytes_per_node", func(r *Row) any { return r.BytesPerNode() }},
},
	meanCI("energy", func(r *Row) stats.Sample { return r.Energy }),
	meanCI("ratio", func(r *Row) stats.Sample { return r.Ratio }),
	meanCI("delay", func(r *Row) stats.Sample { return r.Delay }),
	lineageCols)

// Scale runs the scalability sweep: each node count in o.Nodes (ascending)
// at the paper's middle density, both schemes, averaged over the sampled
// fields. Unlike the other figures the runs execute one at a time — the
// heap readings are process-wide, so one run at a time (with a forced GC at
// each rung start) is what makes the per-rung footprint column meaningful.
// The manifest's bytes/node series is each rung's maximum across schemes.
func Scale(o Options) (*ScaleTable, error) {
	for i := 1; i < len(o.Nodes); i++ {
		if o.Nodes[i] <= o.Nodes[i-1] {
			return nil, fmt.Errorf("harness: figscale node ladder must be strictly ascending, got %v", o.Nodes)
		}
	}
	f := figure{meta: RunMeta{Figure: "figscale", Schemes: schemeNames(bothSchemes), Xs: o.Nodes},
		cols: scaleCols, rungs: true}
	for _, nodes := range o.Nodes {
		for _, s := range bothSchemes {
			f.rows = append(f.rows, Row{Series: s.String(), Scheme: s.String(), X: nodes})
		}
	}
	f.cfg = func(ri, field int) core.Config {
		nodes := o.Nodes[ri/len(bothSchemes)]
		cfg := baseConfig(o, bothSchemes[ri%len(bothSchemes)], nodes, field)
		cfg.FieldSide = scaleFieldSide(nodes)
		return cfg
	}
	sh, err := f.run(o)
	if err != nil {
		return nil, err
	}
	sh.note = "peak_heap_bytes is the rung's own in-use heap (GC forced at rung start; not a monotonic process high-water mark); bytes_per_node = peak_heap_bytes / nodes"
	for i := range sh.Xs {
		sh.BytesPerNode = append(sh.BytesPerNode, 0)
		for _, r := range sh.Rows[i*len(bothSchemes) : (i+1)*len(bothSchemes)] {
			sh.BytesPerNode[i] = max(sh.BytesPerNode[i], r.BytesPerNode())
		}
	}
	return &ScaleTable{sh}, nil
}

// Render writes the sweep as an aligned text table, one row per
// (nodes, scheme).
func (t *ScaleTable) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== figscale: constant-density scaling (%d fields) ==\n",
		t.Fields); err != nil {
		return err
	}
	header := fmt.Sprintf("%6s %14s %7s %8s %10s %9s %8s %10s %7s %8s",
		"nodes", "scheme", "side_m", "density", "events/s", "peak_mb", "b/node", "energy", "ratio", "delay_s")
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for i := range t.Rows {
		r := &t.Rows[i]
		fmt.Fprintf(w, "%6d %14s %7.0f %8.2f %10.0f %9.1f %8d %10.3g %7.3f %8.3f\n",
			r.X, r.Scheme, scaleFieldSide(r.X), r.Density.Mean(),
			r.EventsPerSec(), float64(r.PeakHeapBytes)/(1<<20), r.BytesPerNode(),
			r.Energy.Mean(), r.Ratio.Mean(), r.Delay.Mean())
	}
	_, err := fmt.Fprintln(w)
	return err
}
