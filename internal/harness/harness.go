// Package harness regenerates every figure of the paper's evaluation (§5)
// as a table of per-scheme series, averaging each data point over several
// random sensor fields exactly like the paper ("our results are averaged
// over ten different generated fields").
//
// Each Figure 5-10 panel triple (average dissipated energy, average delay,
// distinct-event delivery ratio) becomes one Table; the abstract GIT/SPT
// comparison and the parameter ablations are additional tables.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// ErrInterrupted is wrapped into the error a figure regeneration returns
// when Options.Interrupt stopped it. The cells that finished are on the
// ledger, if Options.Ledger is set, so re-running the same sweep resumes it.
var ErrInterrupted = errors.New("harness: interrupted before the cell started")

// interrupted reports whether the optional interrupt channel has been closed.
func interrupted(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Options controls how much work a figure regeneration does.
type Options struct {
	// Fields is the number of random fields averaged per data point
	// (paper: 10).
	Fields int
	// Duration is the simulated time per run.
	Duration time.Duration
	// Nodes overrides the density sweep (paper: 50..350 step 50).
	Nodes []int
	// BaseSeed offsets all field seeds, for sensitivity checks.
	BaseSeed int64
	// Workers bounds the number of concurrent simulations (0 = GOMAXPROCS,
	// so a GOMAXPROCS-limited process doesn't oversubscribe itself; the
	// experiments binary exposes this as -jobs).
	Workers int
	// Progress, when non-nil, receives one line per completed run. The
	// harness never calls it concurrently: sweep workers report under one
	// lock, so a Progress that appends to a slice needs no lock of its own.
	Progress func(string)
	// Telemetry enables per-run metrics registries, merged into each
	// table's Meta for the provenance manifest. Each run gets a private
	// registry (the obs.Registry is single-threaded), so concurrent
	// workers never share one.
	Telemetry bool
	// Ledger, when non-empty, is the path of the sweep progress ledger:
	// every completed run is appended there, and cells already on file
	// replay from it instead of simulating, so an interrupted sweep
	// resumes where it stopped.
	Ledger string
	// OnRun, when non-nil, receives each freshly simulated run's summary
	// (replayed cells are skipped — they did their reporting the first
	// time). Called from worker goroutines; must be safe for concurrent
	// use.
	OnRun func(LedgerOutput)
	// FlightDir, when non-empty, arms a flight recorder on every run,
	// dumping to a per-cell file under this directory on an invariant
	// violation or panic.
	FlightDir string
	// SelfTestViolation, when positive, schedules a synthetic invariant
	// violation at this virtual time in every chaos-checked run — a drill
	// that exercises the violation → flight-dump path end to end.
	SelfTestViolation time.Duration
	// Shards, when > 1, runs every eligible cell on the sharded parallel
	// kernel (core.Config.Shards). Cells outside the sharded envelope —
	// failure waves, chaos, RTS/CTS, idealized schemes — keep the serial
	// path instead of failing the sweep. Workers is clamped so
	// jobs × shards never exceeds GOMAXPROCS; see workers.
	Shards int
	// Interrupt, when non-nil and closed, requests a graceful stop at cell
	// boundaries: cells not yet started are skipped, cells already running
	// finish and land in the ledger, and the figure returns an error
	// wrapping ErrInterrupted.
	Interrupt <-chan struct{}
}

// DefaultOptions reproduces the paper's methodology (10 fields per point).
func DefaultOptions() Options {
	return Options{
		Fields:    10,
		Duration:  160 * time.Second,
		Nodes:     []int{50, 100, 150, 200, 250, 300, 350},
		Telemetry: true,
	}
}

// QuickOptions is a reduced-cost preset for tests and demos.
func QuickOptions() Options {
	return Options{
		Fields:    3,
		Duration:  60 * time.Second,
		Nodes:     []int{50, 150, 250},
		Telemetry: true,
	}
}

func (o Options) validate() error {
	switch {
	case o.Fields < 1:
		return fmt.Errorf("harness: need at least 1 field, got %d", o.Fields)
	case o.Duration <= 0:
		return fmt.Errorf("harness: non-positive duration %v", o.Duration)
	case len(o.Nodes) == 0:
		return fmt.Errorf("harness: empty density sweep")
	case o.Workers < 0:
		return fmt.Errorf("harness: negative worker count")
	case o.Shards < 0:
		return fmt.Errorf("harness: negative shard count")
	default:
		return nil
	}
}

// workers returns the concurrent-run cap. With sharding on, each run
// occupies Shards cores by itself, so the requested worker count is clamped
// to GOMAXPROCS / Shards (at least 1) — jobs × shards never oversubscribes
// the machine.
func (o Options) workers() int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if o.Shards > 1 {
		if budget := runtime.GOMAXPROCS(0) / o.Shards; w > budget {
			w = budget
			if w < 1 {
				w = 1
			}
		}
	}
	return w
}

// warnWorkerClamp emits one progress line when the jobs × shards budget cut
// the requested worker count.
func (o Options) warnWorkerClamp() {
	if o.Progress == nil || o.Shards <= 1 {
		return
	}
	req := o.Workers
	if req <= 0 {
		req = runtime.GOMAXPROCS(0)
	}
	if w := o.workers(); w < req {
		o.Progress(fmt.Sprintf(
			"harness: capping workers at %d (%d requested): %d shards per run on GOMAXPROCS=%d",
			w, req, o.Shards, runtime.GOMAXPROCS(0)))
	}
}

// applyShards opts one cell into the sharded kernel when the options ask for
// it and the cell's configuration is inside the sharded envelope; ineligible
// cells keep the serial path rather than failing the sweep.
func (o Options) applyShards(cfg core.Config) core.Config {
	if o.Shards <= 1 {
		return cfg
	}
	cfg.Shards = o.Shards
	if cfg.Validate() != nil {
		cfg.Shards = 0
	}
	return cfg
}

// Cell aggregates one (x, scheme) data point over the sampled fields.
type Cell struct {
	// X is the sweep coordinate (node count, sink count, or source count).
	X int
	// Density is the mean radio degree averaged over fields (the paper's
	// x-axis for Figures 5-7).
	Density stats.Sample
	// Energy is the paper's average dissipated energy (J/node/event);
	// CommEnergy is its tx+rx component (see DESIGN.md).
	Energy     stats.Sample
	CommEnergy stats.Sample
	// Delay is seconds per received distinct event.
	Delay stats.Sample
	// Ratio is the distinct-event delivery ratio.
	Ratio stats.Sample
	// DelayP50/P95/P99 are per-field latency percentiles over individual
	// sample deliveries (lineage-derived, not per-event means).
	DelayP50 stats.Sample
	DelayP95 stats.Sample
	DelayP99 stats.Sample
	// Depth is the per-field mean delivered hop count; MaxDepth is the
	// deepest delivery seen across the cell's fields.
	Depth    stats.Sample
	MaxDepth int
}

// absorb folds one run's metrics into the cell's samples.
func (c *Cell) absorb(lo LedgerOutput) {
	m := lo.Metrics
	c.Density = append(c.Density, lo.Density)
	c.Energy = append(c.Energy, m.AvgDissipatedEnergy)
	c.CommEnergy = append(c.CommEnergy, m.AvgCommEnergy)
	c.Delay = append(c.Delay, m.AvgDelay)
	c.Ratio = append(c.Ratio, m.DeliveryRatio)
	c.DelayP50 = append(c.DelayP50, m.DelayP50)
	c.DelayP95 = append(c.DelayP95, m.DelayP95)
	c.DelayP99 = append(c.DelayP99, m.DelayP99)
	c.Depth = append(c.Depth, m.MeanDepth)
	if m.MaxDepth > c.MaxDepth {
		c.MaxDepth = m.MaxDepth
	}
}

// Table is one regenerated figure: a set of per-scheme series over a sweep.
type Table struct {
	ID     string
	Title  string
	XLabel string
	// Schemes lists series order; Cells[scheme][i] corresponds to Xs[i].
	Schemes []string
	Xs      []int
	Cells   map[string][]Cell
	// Meta is the sweep's execution record, always filled by the harness.
	Meta *RunMeta
}

// Manifest builds the provenance record written beside the table's CSV.
func (t *Table) Manifest() *obs.Manifest {
	return t.Meta.Manifest(t.ID, t.Schemes, t.Xs)
}

// RunMeta is the execution record of one sweep: configuration provenance
// plus kernel throughput and, when Options.Telemetry is on, the merged
// metrics snapshot across every run.
type RunMeta struct {
	// Fields, BaseSeed, and Duration echo the Options the sweep ran with.
	Fields   int
	BaseSeed int64
	Duration time.Duration
	// Runs counts completed simulations; WallTime and Events sum their
	// kernel costs (WallTime sums per-run wall clocks, so with concurrent
	// workers it exceeds elapsed time — it is the CPU-seconds analogue).
	Runs     int
	WallTime time.Duration
	Events   uint64
	// Telemetry is the merged registry snapshot; nil without telemetry.
	Telemetry []obs.Metric
}

// EventsPerSec returns kernel throughput per wall-clock second of
// simulation work.
func (m *RunMeta) EventsPerSec() float64 {
	if m == nil || m.WallTime <= 0 {
		return 0
	}
	return float64(m.Events) / m.WallTime.Seconds()
}

// Manifest renders the meta record as a provenance manifest. A nil receiver
// yields a manifest with only environment fields filled.
func (m *RunMeta) Manifest(figure string, schemes []string, xs []int) *obs.Manifest {
	if m == nil {
		m = &RunMeta{}
	}
	return &obs.Manifest{
		SchemaVersion:   obs.ManifestVersion,
		Figure:          figure,
		CreatedAt:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		NumCPU:          runtime.NumCPU(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		Schemes:         schemes,
		Xs:              xs,
		Fields:          m.Fields,
		SimSeconds:      m.Duration.Seconds(),
		BaseSeed:        m.BaseSeed,
		Runs:            m.Runs,
		WallSeconds:     m.WallTime.Seconds(),
		KernelEvents:    m.Events,
		EventsPerSec:    m.EventsPerSec(),
		PeakMemBytes:    obs.PeakMemoryBytes(),
		TelemetryDigest: obs.Digest(m.Telemetry),
		Metrics:         m.Telemetry,
		// A manifest is only built once its table exists, i.e. after every
		// cell of the sweep completed; partial sweeps never get this far.
		Complete: true,
	}
}

// metaCollector accumulates RunMeta across a sweep's results, merging
// per-run registries through one aggregate registry.
type metaCollector struct {
	meta RunMeta
	agg  *obs.Registry
}

func newMetaCollector(o Options) *metaCollector {
	c := &metaCollector{meta: RunMeta{
		Fields:   o.Fields,
		BaseSeed: o.BaseSeed,
		Duration: o.Duration,
	}}
	if o.Telemetry {
		c.agg = obs.NewRegistry()
	}
	return c
}

func (c *metaCollector) add(lo LedgerOutput) error {
	c.meta.Runs++
	c.meta.WallTime += lo.Kernel.WallTime
	c.meta.Events += lo.Kernel.Events
	if c.agg != nil {
		if err := c.agg.Absorb(lo.Telemetry); err != nil {
			return fmt.Errorf("harness: merge telemetry: %w", err)
		}
	}
	return nil
}

func (c *metaCollector) finish() *RunMeta {
	if c.agg != nil {
		c.meta.Telemetry = c.agg.Snapshot()
	}
	m := c.meta
	return &m
}

// job describes one simulation run within a sweep.
type job struct {
	scheme core.Scheme
	xIdx   int
	field  int
	cfg    core.Config
}

// sweep runs cfgFor over xs × schemes × fields with a worker pool and
// aggregates the results.
func sweep(o Options, id, title, xlabel string, schemes []core.Scheme, xs []int,
	cfgFor func(scheme core.Scheme, x, field int) core.Config) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, XLabel: xlabel, Xs: xs, Cells: map[string][]Cell{}}
	for _, s := range schemes {
		t.Schemes = append(t.Schemes, s.String())
		cells := make([]Cell, len(xs))
		for i, x := range xs {
			cells[i].X = x
		}
		t.Cells[s.String()] = cells
	}

	var jobs []job
	for _, s := range schemes {
		for xi := range xs {
			for f := 0; f < o.Fields; f++ {
				cfg := cfgFor(s, xs[xi], f)
				if o.Telemetry {
					cfg.Telemetry = &obs.Config{}
				}
				cfg = o.applyShards(cfg)
				jobs = append(jobs, job{scheme: s, xIdx: xi, field: f, cfg: cfg})
			}
		}
	}

	led, err := openLedger(o)
	if err != nil {
		return nil, err
	}
	defer led.Close()
	o.warnWorkerClamp()
	tr := newProgressTracker(len(jobs))

	type result struct {
		job job
		out LedgerOutput
		err error
	}
	results := make([]result, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, o.workers())
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			j := jobs[i]
			cid := cellID{figure: id, series: j.scheme.String(), x: xs[j.xIdx], field: j.field}
			out, err := runCell(o, led, tr, cid, j.cfg)
			results[i] = result{job: j, out: out, err: err}
		}(i)
	}
	wg.Wait()

	meta := newMetaCollector(o)
	for _, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("harness: %s %v x-index %d field %d: %w",
				id, r.job.scheme, r.job.xIdx, r.job.field, r.err)
		}
		if err := meta.add(r.out); err != nil {
			return nil, err
		}
		t.Cells[r.job.scheme.String()][r.job.xIdx].absorb(r.out)
	}
	t.Meta = meta.finish()
	return t, nil
}

// seedFor spaces field seeds so different x values use different fields,
// while the two schemes share the same field per (x, field) pair — the
// paired design the paper's comparison needs.
func seedFor(base int64, x, field int) int64 {
	return base + int64(x)*1_000 + int64(field)
}
