// Command experiments regenerates the paper's evaluation: every panel of
// Figures 5-10, the abstract GIT-vs-SPT comparison, the design-choice
// ablations, and the chaos robustness grid. Results are printed as aligned
// text tables and optionally written as CSV files.
//
// Examples:
//
//	experiments -fig 5                # Figure 5 with the paper's 10 fields
//	experiments -fig all -fields 3    # everything, 3 fields per point
//	experiments -fig 9 -quick         # reduced preset for a fast look
//	experiments -fig all -out results # also write results/fig*.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

type figureFunc func(harness.Options) (*harness.Table, error)

var figures = []struct {
	name string
	fn   figureFunc
}{
	{"5", harness.Fig5},
	{"6", harness.Fig6},
	{"7", harness.Fig7},
	{"8", harness.Fig8},
	{"9", harness.Fig9},
	{"10", harness.Fig10},
	{"ablation-truncation", harness.AblationTruncation},
	{"ablation-tp", harness.AblationReinforceDelay},
	{"ablation-ta", harness.AblationAggregationDelay},
	{"ablation-rtscts", harness.AblationRTSCTS},
	{"baselines", harness.Baselines},
}

// extraFigures are the non-Table figures handled by dedicated blocks below;
// "scale", "repair", and "mobility" are excluded from "all" (run them by
// name).
var extraFigures = []string{"git-spt", "lifetime", "chaos", "scale", "repair", "mobility"}

// validFigures lists every accepted -fig value, "all" last.
func validFigures() []string {
	names := make([]string, 0, len(figures)+len(extraFigures)+1)
	for _, f := range figures {
		names = append(names, f.name)
	}
	names = append(names, extraFigures...)
	return append(names, "all")
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, harness.ErrInterrupted) {
			fmt.Fprintln(os.Stderr, "experiments: stopped at a cell boundary — with -ledger, finished cells"+
				" are recorded there; re-run the same command to resume")
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig        = fs.String("fig", "all", `figure to regenerate: 5..10, "git-spt", "lifetime", "chaos", "scale", "repair", "mobility", an ablation name, or "all" (scale, repair, and mobility excluded: run them explicitly)`)
		fields     = fs.Int("fields", 0, "random fields per data point (default: paper's 10, or 3 with -quick)")
		duration   = fs.Duration("duration", 0, "simulated seconds per run (default 160s, 60s with -quick)")
		quick      = fs.Bool("quick", false, "reduced preset: 3 fields, 60 s, 3 densities (scale: 500 nodes only)")
		jobs       = fs.Int("jobs", 0, "cap on concurrent simulation workers (default GOMAXPROCS)")
		shards     = fs.Int("shards", 0, "run each eligible cell on the sharded parallel kernel with this many strips (0/1 = serial; jobs×shards is capped at GOMAXPROCS)")
		outDir     = fs.String("out", "", "directory for CSV output (created if missing)")
		plots      = fs.Bool("plot", false, "also draw each panel as an ASCII chart")
		progress   = fs.Bool("progress", false, "log each completed run to stderr with sweep progress and ETA")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation heap profile to this file on exit")

		scaleNodes     = fs.String("scale-nodes", "", `override the -fig scale node ladder with a comma-separated ascending list, e.g. "500,5000"`)
		big            = fs.Bool("big", false, "extend the -fig scale ladder with the 50000-node rung (needs several GB of heap)")
		ledger         = fs.String("ledger", "", "sweep progress ledger file: completed runs are recorded there and skipped on a re-run, so an interrupted sweep resumes")
		liveAddr       = fs.String("live", "", `serve the live debug endpoint (status, /metrics, /debug/pprof) on this address, e.g. "localhost:6060"`)
		flightDir      = fs.String("flight-dir", "", "arm a flight recorder on every run, dumping per-cell files into this directory on an invariant violation or panic")
		forceViolation = fs.Duration("force-violation", 0, "inject a synthetic invariant violation at this virtual time into every chaos-checked run (exercises the flight-dump path)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Fail fast on a bad figure name, before any profiling or output setup.
	known := false
	for _, name := range validFigures() {
		if *fig == name {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown figure %q (have: %s)", *fig, strings.Join(validFigures(), ", "))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	opts := harness.DefaultOptions()
	if *quick {
		opts = harness.QuickOptions()
	}
	if *fields > 0 {
		opts.Fields = *fields
	}
	if *duration > 0 {
		opts.Duration = *duration
	}
	if *jobs < 0 {
		return fmt.Errorf("negative -jobs %d", *jobs)
	}
	opts.Workers = *jobs
	if *shards < 0 {
		return fmt.Errorf("negative -shards %d", *shards)
	}
	opts.Shards = *shards
	if *progress {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	opts.Ledger = *ledger
	opts.SelfTestViolation = *forceViolation

	// On the first SIGINT/SIGTERM the sweep drains at cell boundaries: no new
	// cells start, running cells finish and land in the ledger, and the
	// process exits 130 with resume instructions. A second signal kills
	// immediately.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	interrupt := make(chan struct{})
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "experiments: interrupt received, draining (^C again to kill)")
		close(interrupt)
		<-sigs
		os.Exit(1)
	}()
	opts.Interrupt = interrupt
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			return err
		}
		opts.FlightDir = *flightDir
	}

	var live *obs.Live
	if *liveAddr != "" {
		var err error
		live, err = obs.NewLive(*liveAddr)
		if err != nil {
			return err
		}
		defer live.Close()
		fmt.Fprintf(out, "live debug endpoint on http://%s/\n", live.Addr())
		opts.OnRun = func(lo harness.LedgerOutput) {
			live.AddRun(lo.Kernel.Events, lo.Kernel.WallTime, lo.Telemetry)
		}
	}

	var csvDir string
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		csvDir = *outDir
	}

	start := time.Now()
	ran := 0
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		ran++
		t0 := time.Now()
		live.SetPhase("fig" + f.name)
		tbl, err := f.fn(opts)
		if err != nil {
			return fmt.Errorf("fig %s: %w", f.name, err)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		if *plots {
			if err := tbl.RenderCharts(out); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "(fig %s regenerated in %v, %d kernel events, %.0f events/s)\n\n",
			f.name, time.Since(t0).Round(time.Second), tbl.Meta.Events, tbl.Meta.EventsPerSec())
		if csvDir != "" {
			if err := writeCSV(csvDir, "fig"+f.name+".csv", tbl.CSV); err != nil {
				return err
			}
			if err := tbl.Manifest().Write(
				filepath.Join(csvDir, "fig"+f.name+".manifest.json")); err != nil {
				return err
			}
		}
	}

	if *fig == "all" || *fig == "git-spt" {
		ran++
		t0 := time.Now()
		live.SetPhase("git-spt")
		tbl, err := harness.GitSpt(opts)
		if err != nil {
			return fmt.Errorf("git-spt: %w", err)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "(git-spt regenerated in %v, %d kernel events, %.0f events/s)\n\n",
			time.Since(t0).Round(time.Second), tbl.Meta.Events, tbl.Meta.EventsPerSec())
		if csvDir != "" {
			if err := writeCSV(csvDir, "figgitspt.csv", tbl.CSV); err != nil {
				return err
			}
			if err := tbl.Manifest().Write(
				filepath.Join(csvDir, "figgitspt.manifest.json")); err != nil {
				return err
			}
		}
	}

	if *fig == "all" || *fig == "lifetime" {
		ran++
		t0 := time.Now()
		live.SetPhase("lifetime")
		tbl, err := harness.LifetimeStudy(opts)
		if err != nil {
			return fmt.Errorf("lifetime: %w", err)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "(lifetime regenerated in %v, %d kernel events, %.0f events/s)\n\n",
			time.Since(t0).Round(time.Second), tbl.Meta.Events, tbl.Meta.EventsPerSec())
		if csvDir != "" {
			if err := writeCSV(csvDir, "figlifetime.csv", tbl.CSV); err != nil {
				return err
			}
			if err := tbl.Manifest().Write(
				filepath.Join(csvDir, "figlifetime.manifest.json")); err != nil {
				return err
			}
		}
	}

	if *fig == "all" || *fig == "chaos" {
		ran++
		t0 := time.Now()
		live.SetPhase("chaos")
		tbl, err := harness.Chaos(opts)
		if err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		if v := tbl.TotalViolations(); v != 0 {
			fmt.Fprintf(out, "WARNING: %d protocol-invariant violations across the grid\n", v)
		}
		fmt.Fprintf(out, "(chaos grid regenerated in %v, %d kernel events, %.0f events/s)\n\n",
			time.Since(t0).Round(time.Second), tbl.Meta.Events, tbl.Meta.EventsPerSec())
		if csvDir != "" {
			if err := writeCSV(csvDir, "figchaos.csv", tbl.CSV); err != nil {
				return err
			}
			if err := tbl.Manifest().Write(
				filepath.Join(csvDir, "figchaos.manifest.json")); err != nil {
				return err
			}
		}
	}

	// The scale sweep runs thousands-of-nodes fields and is deliberately not
	// part of "all"; ask for it by name.
	if *fig == "scale" {
		ran++
		t0 := time.Now()
		scaleOpts := opts
		scaleOpts.Nodes = harness.ScaleNodes
		if *quick {
			scaleOpts.Nodes = harness.ScaleNodesQuick
		}
		if *scaleNodes != "" {
			ladder, err := parseNodeLadder(*scaleNodes)
			if err != nil {
				return fmt.Errorf("scale: %w", err)
			}
			scaleOpts.Nodes = ladder
		}
		if *big {
			scaleOpts.Nodes = append(append([]int(nil), scaleOpts.Nodes...), harness.ScaleNodesBig...)
		}
		live.SetPhase("scale")
		tbl, err := harness.Scale(scaleOpts)
		if err != nil {
			return fmt.Errorf("scale: %w", err)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "(scale regenerated in %v, %d kernel events, %.0f events/s)\n\n",
			time.Since(t0).Round(time.Second), tbl.Meta.Events, tbl.Meta.EventsPerSec())
		if csvDir != "" {
			if err := writeCSV(csvDir, "figscale.csv", tbl.CSV); err != nil {
				return err
			}
			if err := tbl.Manifest().Write(
				filepath.Join(csvDir, "figscale.manifest.json")); err != nil {
				return err
			}
		}
	}

	// The repair ablation doubles the chaos grid (repair off and on) and,
	// like scale, is not part of "all"; ask for it by name.
	if *fig == "repair" {
		ran++
		t0 := time.Now()
		live.SetPhase("repair")
		tbl, err := harness.Repair(opts)
		if err != nil {
			return fmt.Errorf("repair: %w", err)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		if v := tbl.TotalViolations(); v != 0 {
			fmt.Fprintf(out, "WARNING: %d protocol-invariant violations across the grid\n", v)
		}
		fmt.Fprintf(out, "(repair ablation regenerated in %v, %d kernel events, %.0f events/s)\n\n",
			time.Since(t0).Round(time.Second), tbl.Meta.Events, tbl.Meta.EventsPerSec())
		if csvDir != "" {
			if err := writeCSV(csvDir, "figrepair.csv", tbl.CSV); err != nil {
				return err
			}
			if err := tbl.Manifest().Write(
				filepath.Join(csvDir, "figrepair.manifest.json")); err != nil {
				return err
			}
		}
	}

	// The mobility grid replays the dynamics scenarios with repair off and
	// on and, like scale and repair, is not part of "all"; ask for it by
	// name. The CSV lands as results/mobility.csv — the artifact name the
	// experiment contract pins.
	if *fig == "mobility" {
		ran++
		t0 := time.Now()
		live.SetPhase("mobility")
		tbl, err := harness.Mobility(opts)
		if err != nil {
			return fmt.Errorf("mobility: %w", err)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		if v := tbl.RepairOnViolations(); v != 0 {
			fmt.Fprintf(out, "WARNING: %d protocol-invariant violations on the repair-on arm\n", v)
		}
		fmt.Fprintf(out, "(mobility grid regenerated in %v, %d kernel events, %.0f events/s)\n\n",
			time.Since(t0).Round(time.Second), tbl.Meta.Events, tbl.Meta.EventsPerSec())
		if csvDir != "" {
			if err := writeCSV(csvDir, "mobility.csv", tbl.CSV); err != nil {
				return err
			}
			if err := tbl.Manifest().Write(
				filepath.Join(csvDir, "mobility.manifest.json")); err != nil {
				return err
			}
		}
	}

	live.SetPhase("done")
	fmt.Fprintf(out, "total: %d table(s) in %v\n", ran, time.Since(start).Round(time.Second))
	return nil
}

// parseNodeLadder parses a -scale-nodes override: comma-separated positive
// node counts, strictly ascending (Scale enforces the order; checking here
// gives the flag its own error message).
func parseNodeLadder(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	ladder := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -scale-nodes entry %q: %w", p, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("non-positive -scale-nodes entry %d", n)
		}
		if len(ladder) > 0 && n <= ladder[len(ladder)-1] {
			return nil, fmt.Errorf("-scale-nodes must be strictly ascending, got %q", s)
		}
		ladder = append(ladder, n)
	}
	return ladder, nil
}

// writeCSV lands one results CSV atomically (buffer, temp file, fsync,
// rename) so an interrupted process never leaves a truncated artifact.
func writeCSV(dir, name string, write func(io.Writer) error) error {
	return harness.WriteCSV(dir, name, write)
}
