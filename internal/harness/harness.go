// Package harness regenerates every figure of the paper's evaluation (§5)
// as a table of per-scheme series, averaging each data point over several
// random sensor fields exactly like the paper ("our results are averaged
// over ten different generated fields").
//
// Each Figure 5-10 panel triple (average dissipated energy, average delay,
// distinct-event delivery ratio) becomes one Table; the abstract GIT/SPT
// comparison, the parameter ablations and the robustness, dynamics, scale
// and lifetime studies are additional tables. Every figure is data — its
// cells, the row each feeds, and its CSV columns — run by one engine.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
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
	// experiments binary exposes this as -jobs). Only the scale figure
	// always runs one cell at a time: its per-rung heap column needs that.
	Workers int
	// Progress, when non-nil, receives one line per completed run. The
	// harness never calls it concurrently: sweep workers report under one
	// lock, so a Progress that appends to a slice needs no lock of its own.
	Progress func(string)
	// Telemetry turns on every run's telemetry snapshot; the figure merges
	// them (obs.Merge) in cell order on one goroutine into its RunMeta for
	// the provenance manifest.
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
	default:
		return nil
	}
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunMeta is the execution record of one figure: what the figure is, the
// Options it ran with, kernel throughput and, when Options.Telemetry is on,
// the merged metrics snapshot across every run. Every table embeds it, so
// its Manifest is each table's provenance record.
type RunMeta struct {
	// Figure is the figure's ID: its ledger key, the first column of its
	// CSV and the manifest's figure name. Schemes and Xs are the series and
	// x values the manifest lists (Xs is nil on the scenario grids).
	Figure  string
	Schemes []string
	Xs      []int
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
	// Telemetry is the runs' snapshots merged in cell order (obs.Merge);
	// nil without telemetry.
	Telemetry []obs.Metric
	// BytesPerNode, filled by the scale figure only, is each rung's peak
	// in-use heap per node (max across schemes), aligned with Xs.
	BytesPerNode []uint64
}

// EventsPerSec returns kernel throughput per wall-clock second of
// simulation work.
func (m *RunMeta) EventsPerSec() float64 {
	if m == nil || m.WallTime <= 0 {
		return 0
	}
	return float64(m.Events) / m.WallTime.Seconds()
}

// Manifest renders the meta record as the provenance manifest written
// beside the figure's CSV.
func (m *RunMeta) Manifest() *obs.Manifest {
	return &obs.Manifest{
		SchemaVersion:   obs.ManifestVersion,
		Figure:          m.Figure,
		CreatedAt:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		NumCPU:          runtime.NumCPU(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		Schemes:         m.Schemes,
		Xs:              m.Xs,
		Fields:          m.Fields,
		SimSeconds:      m.Duration.Seconds(),
		BaseSeed:        m.BaseSeed,
		Runs:            m.Runs,
		WallSeconds:     m.WallTime.Seconds(),
		KernelEvents:    m.Events,
		EventsPerSec:    m.EventsPerSec(),
		PeakMemBytes:    obs.PeakMemoryBytes(),
		BytesPerNode:    m.BytesPerNode,
		TelemetryDigest: obs.Digest(m.Telemetry),
		Metrics:         m.Telemetry,
		// A manifest is only built once its table exists, i.e. after every
		// cell of the sweep completed; partial sweeps never get this far.
		Complete: true,
	}
}

// seedFor spaces field seeds so different x values use different fields,
// while the two schemes share the same field per (x, field) pair — the
// paired design the paper's comparison needs.
func seedFor(base int64, x, field int) int64 {
	return base + int64(x)*1_000 + int64(field)
}
