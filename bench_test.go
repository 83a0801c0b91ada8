// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (one benchmark per figure) and measure the
// simulator substrates.
//
// Figure benchmarks run a reduced sweep per iteration (fewer fields and a
// shorter simulated time than cmd/experiments, which reproduces the paper's
// full methodology) and report the headline quantity of each figure as a
// custom metric so `go test -bench=.` doubles as a shape regression check:
//
//	greedy/opportunistic communication-energy ratios, delay deltas,
//	delivery ratios, and GIT/SPT transmission savings.
package repro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datacentric"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/setcover"
	"repro/internal/sim"
	"repro/internal/topology"
)

// benchOptions is the reduced preset for figure benchmarks.
func benchOptions() harness.Options {
	return harness.Options{
		Fields:   2,
		Duration: 60 * time.Second,
		Nodes:    []int{50, 200, 350},
	}
}

// reportFigure publishes per-density comparisons of the two schemes.
func reportFigure(b *testing.B, t *harness.Table) {
	b.Helper()
	if len(t.Schemes) != 2 {
		return
	}
	last := len(t.Xs) - 1
	if s, err := t.Savings(t.Schemes[0], t.Schemes[1], last); err == nil {
		b.ReportMetric(s, "comm-savings-%")
	}
	g := t.Cells[t.Schemes[0]][last]
	o := t.Cells[t.Schemes[1]][last]
	b.ReportMetric(g.Ratio.Mean(), "greedy-delivery")
	b.ReportMetric(o.Ratio.Mean(), "baseline-delivery")
	b.ReportMetric(g.Delay.Mean()*1000, "greedy-delay-ms")
	b.ReportMetric(o.Delay.Mean()*1000, "baseline-delay-ms")
	if eps := t.EventsPerSec(); eps > 0 {
		b.ReportMetric(eps, "events/s")
	}
}

func benchFigure(b *testing.B, fn func(harness.Options) (*harness.Table, error)) {
	b.Helper()
	var tbl *harness.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = fn(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, tbl)
}

// BenchmarkFig5Density regenerates Figure 5: greedy vs. opportunistic
// aggregation across network density.
func BenchmarkFig5Density(b *testing.B) { benchFigure(b, harness.Fig5) }

// BenchmarkFig6Failures regenerates Figure 6: the density sweep under the
// 20%-off/30 s node-failure process.
func BenchmarkFig6Failures(b *testing.B) { benchFigure(b, harness.Fig6) }

// BenchmarkFig7RandomSources regenerates Figure 7: random source placement.
func BenchmarkFig7RandomSources(b *testing.B) { benchFigure(b, harness.Fig7) }

// BenchmarkFig8Sinks regenerates Figure 8: 1..5 sinks at the densest field.
func BenchmarkFig8Sinks(b *testing.B) { benchFigure(b, harness.Fig8) }

// BenchmarkFig9Sources regenerates Figure 9: 2..14 sources at the densest
// field under perfect aggregation.
func BenchmarkFig9Sources(b *testing.B) { benchFigure(b, harness.Fig9) }

// BenchmarkFig10Linear regenerates Figure 10: the source sweep under the
// linear aggregation function.
func BenchmarkFig10Linear(b *testing.B) { benchFigure(b, harness.Fig10) }

// BenchmarkGITvsSPT regenerates the §1/§6 abstract comparison and reports
// the mean GIT-over-SPT savings per source model at the densest field.
func BenchmarkGITvsSPT(b *testing.B) {
	opts := benchOptions()
	opts.Fields = 10 // graph-level runs are cheap
	var tbl *harness.GitSptTable
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = harness.GitSpt(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	b.ReportMetric(100*last.Random.Mean(), "random-savings-%")
	b.ReportMetric(100*last.Corner.Mean(), "corner-savings-%")
	b.ReportMetric(100*last.EventRadius.Mean(), "eventradius-savings-%")
}

// BenchmarkAblationTruncation compares the paper's source-cover truncation
// rule against the conservative event-cover rule.
func BenchmarkAblationTruncation(b *testing.B) { benchFigure(b, harness.AblationTruncation) }

// BenchmarkAblationReinforceDelay sweeps the greedy reinforcement timer Tp.
func BenchmarkAblationReinforceDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationReinforceDelay(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAggregationDelay sweeps the aggregation delay Ta.
func BenchmarkAblationAggregationDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationAggregationDelay(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleRun350 measures one full-methodology simulation at the
// paper's densest configuration — the unit of work every figure multiplies.
// It reports events/delivery, kernel events fired per event delivered to a
// sink: deterministic for a fixed b.N, so CI gates it as the work the
// simulator does per unit of the paper's output.
func BenchmarkSingleRun350(b *testing.B) { benchSingleRun350(b, false) }

// BenchmarkSingleRun350Telemetry is BenchmarkSingleRun350 with telemetry
// on, as `experiments` runs by default: it gates the MAC drop hook and the
// end-of-run rendering of the snapshot, which the plain run never enters.
func BenchmarkSingleRun350Telemetry(b *testing.B) { benchSingleRun350(b, true) }

func benchSingleRun350(b *testing.B, telemetry bool) {
	var events uint64
	delivered := 0
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Nodes = 350
		cfg.Seed = int64(i)
		cfg.Duration = 60 * time.Second
		if telemetry {
			cfg.Telemetry = &obs.Config{}
		}
		out, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += out.Kernel.Events
		delivered += out.Metrics.DeliveredEvents
	}
	if delivered > 0 {
		b.ReportMetric(float64(events)/float64(delivered), "events/delivery")
	}
}

// BenchmarkScaleSweep measures the scale figure's unit of work — both
// schemes at one rung of `experiments -fig scale`, the field grown to hold
// the paper's middle density — across three ladder rungs, reporting kernel
// throughput and the per-node heap footprint the degree-bounded hot paths
// are gated on (bytes/node must stay flat as the population grows).
func BenchmarkScaleSweep(b *testing.B) {
	for _, nodes := range []int{500, 2000, 5000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			opts := harness.Options{
				Fields:   1,
				Duration: 30 * time.Second,
				Nodes:    []int{nodes},
			}
			var tbl *harness.ScaleTable
			for i := 0; i < b.N; i++ {
				var err error
				tbl, err = harness.Scale(opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			if eps := tbl.EventsPerSec(); eps > 0 {
				b.ReportMetric(eps, "events/s")
			}
			row := &tbl.Rows[0]
			b.ReportMetric(float64(row.PeakHeapBytes)/(1<<20), "peak-heap-MB")
			b.ReportMetric(float64(row.BytesPerNode()), "bytes/node")
		})
	}
}

// BenchmarkMACFrameFieldSize is the paired-field-size check behind the
// degree-bounded receiver sets: the per-broadcast MAC cost must stay flat
// (±10% ns/op) across a 4× change in field size, because every hot-path
// structure scales with radio degree, not population. The big field embeds
// the small field's exact positions and adds only padding nodes beyond
// radio range of it, so the senders' neighborhoods are identical by
// construction — any ns/op growth is pure field-size overhead.
func BenchmarkMACFrameFieldSize(b *testing.B) {
	const (
		baseNodes = 2000
		radio     = 40.0
	)
	rng := rand.New(rand.NewSource(1))
	baseSide := 200 * math.Sqrt(baseNodes/150.0) // paper's middle density
	base := make([]geom.Point, baseNodes)
	for i := range base {
		base[i] = geom.Point{X: rng.Float64() * baseSide, Y: rng.Float64() * baseSide}
	}
	for _, nodes := range []int{baseNodes, 4 * baseNodes} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			pts := append([]geom.Point(nil), base...)
			// Padding lives in its own constant-density square starting a
			// full radio range past the base field.
			if extra := nodes - baseNodes; extra > 0 {
				off := baseSide + 2*radio
				padSide := 200 * math.Sqrt(float64(extra)/150.0)
				for i := 0; i < extra; i++ {
					pts = append(pts, geom.Point{
						X: off + rng.Float64()*padSide, Y: rng.Float64() * padSide,
					})
				}
			}
			bound := baseSide + 2*radio + 200*math.Sqrt(3*baseNodes/150.0)
			f, err := topology.FromPositions(geom.Square(0, 0, bound), radio, pts)
			if err != nil {
				b.Fatal(err)
			}
			k := sim.NewKernel(1)
			net := mac.New(k, f, mac.Params{})
			// Rotate a fixed sender set and warm their queues and frame
			// pools up front, so the loop measures
			// the steady-state per-frame cost rather than first-touch
			// allocations spread across the whole population.
			const senders = 64
			for i := 0; i < senders; i++ {
				_ = net.Broadcast(topology.NodeID(i), mac.Frame{Bytes: 64})
				k.Run(k.Now() + 10*time.Millisecond)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = net.Broadcast(topology.NodeID(i%senders), mac.Frame{Bytes: 64})
				k.Run(k.Now() + 10*time.Millisecond)
			}
		})
	}
}

// --- substrate micro-benchmarks ---------------------------------------------

// BenchmarkKernelSchedule measures raw event throughput of the
// discrete-event kernel.
func BenchmarkKernelSchedule(b *testing.B) {
	k := sim.NewKernel(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.Schedule(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	k.Schedule(0, tick)
	k.Run(time.Duration(b.N+1) * time.Microsecond)
}

// BenchmarkMACBroadcast measures the per-broadcast cost of the CSMA/CA
// model at the paper's highest density. Every sender broadcasts once
// before the timer starts so the pool (queue slices, receiver sets) is
// warm and the measurement is the zero-alloc steady state the gate
// protects, even at CI's -benchtime=1x.
func BenchmarkMACBroadcast(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f, err := topology.Generate(topology.Config{
		Area: geom.Square(0, 0, 200), Nodes: 350, Range: 40,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	k := sim.NewKernel(1)
	net := mac.New(k, f, mac.Params{})
	for i := 0; i < 350; i++ {
		_ = net.Broadcast(topology.NodeID(i), mac.Frame{Bytes: 64})
		k.Run(k.Now() + 10*time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Broadcast(topology.NodeID(i%350), mac.Frame{Bytes: 64})
		k.Run(k.Now() + 10*time.Millisecond)
	}
}

// BenchmarkSetCover measures the greedy weighted set cover on
// aggregation-sized instances (a handful of subsets over tens of items):
// "oneshot" through setcover.Greedy, which starts from fresh state each
// call, and "reused" through one warmed Solver, as the protocol's per-message
// path runs it; the latter allocates nothing.
func BenchmarkSetCover(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	universe := make([]int, 24)
	for i := range universe {
		universe[i] = i
	}
	family := make([]setcover.Subset[int], 6)
	for i := range family {
		size := rng.Intn(12) + 4
		family[i] = setcover.Subset[int]{
			Elements: rng.Perm(24)[:size],
			Weight:   float64(rng.Intn(10) + 1),
		}
	}
	family[0].Elements = universe // feasibility
	b.Run("oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := setcover.Greedy(universe, family); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		var sv setcover.Solver[int]
		if _, err := sv.Solve(universe, family); err != nil { // warm
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sv.Solve(universe, family); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGITConstruction measures greedy-incremental-tree construction on
// the densest field.
func BenchmarkGITConstruction(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f, err := topology.Generate(topology.Config{
		Area: geom.Square(0, 0, 200), Nodes: 350, Range: 40,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	sink := topology.NodeID(0)
	sources, err := datacentric.RandomSources(f, sink, 5, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datacentric.GIT(f, sink, sources); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyGenerate measures field generation with the grid-based
// neighbor construction.
func BenchmarkTopologyGenerate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := topology.Generate(topology.Config{
			Area: geom.Square(0, 0, 200), Nodes: 350, Range: 40,
		}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRTSCTS re-runs the density comparison with the RTS/CTS
// handshake enabled.
func BenchmarkAblationRTSCTS(b *testing.B) { benchFigure(b, harness.AblationRTSCTS) }

// BenchmarkBaselines contextualizes the schemes against flooding and
// omniscient multicast.
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Baselines(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLifetimeStudy measures the battery-depletion study (the paper's
// closing lifetime claim made operational).
func BenchmarkLifetimeStudy(b *testing.B) {
	opts := benchOptions()
	opts.Nodes = []int{200}
	for i := 0; i < b.N; i++ {
		if _, err := harness.LifetimeStudy(opts); err != nil {
			b.Fatal(err)
		}
	}
}
