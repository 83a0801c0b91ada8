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
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// table is what every harness figure returns: its text table, its CSV,
// and the provenance manifest of the run behind them.
type table interface {
	Render(io.Writer) error
	CSV(io.Writer) error
	Manifest() *obs.Manifest
}

// experiment is one -fig name: the stem its CSV and manifest are written
// under, and the regeneration itself. byName figures are left out of
// "all" and run only when asked for.
type experiment struct {
	name, stem string
	run        func(harness.Options) (table, error)
	byName     bool
}

// adapt wraps a harness figure for the experiment list.
func adapt[T table](regenerate func(harness.Options) (T, error)) func(harness.Options) (table, error) {
	return func(o harness.Options) (table, error) { return regenerate(o) }
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
		jobs       = fs.Int("jobs", 0, "cap on concurrent simulation workers (default GOMAXPROCS; the scale figure always runs one at a time, for its heap column)")
		outDir     = fs.String("out", "", "directory for CSV output (created if missing)")
		plots      = fs.Bool("plot", false, "also draw each panel as an ASCII chart")
		progress   = fs.Bool("progress", false, "log each completed run to stderr with sweep progress and ETA")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation heap profile to this file on exit")

		scaleNodes     = fs.String("scale-nodes", "", `override the -fig scale node ladder with a comma-separated ascending list, e.g. "500,5000"`)
		ledger         = fs.String("ledger", "", "sweep progress ledger file: completed runs are recorded there and skipped on a re-run, so an interrupted sweep resumes")
		flightDir      = fs.String("flight-dir", "", "arm a flight recorder on every run, dumping per-cell files into this directory on an invariant violation or panic")
		forceViolation = fs.Duration("force-violation", 0, "inject a synthetic invariant violation at this virtual time into every chaos-checked run (exercises the flight-dump path)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	experiments := []experiment{
		{name: "5", stem: "fig5", run: adapt(harness.Fig5)},
		{name: "6", stem: "fig6", run: adapt(harness.Fig6)},
		{name: "7", stem: "fig7", run: adapt(harness.Fig7)},
		{name: "8", stem: "fig8", run: adapt(harness.Fig8)},
		{name: "9", stem: "fig9", run: adapt(harness.Fig9)},
		{name: "10", stem: "fig10", run: adapt(harness.Fig10)},
		{name: "ablation-truncation", stem: "figablation-truncation", run: adapt(harness.AblationTruncation)},
		{name: "ablation-tp", stem: "figablation-tp", run: adapt(harness.AblationReinforceDelay)},
		{name: "ablation-ta", stem: "figablation-ta", run: adapt(harness.AblationAggregationDelay)},
		{name: "ablation-rtscts", stem: "figablation-rtscts", run: adapt(harness.AblationRTSCTS)},
		{name: "baselines", stem: "figbaselines", run: adapt(harness.Baselines)},
		{name: "git-spt", stem: "figgitspt", run: adapt(harness.GitSpt)},
		{name: "lifetime", stem: "figlifetime", run: adapt(harness.LifetimeStudy)},
		{name: "chaos", stem: "figchaos", run: adapt(harness.Chaos)},
		// The scale sweep runs thousands-of-nodes fields on its own node
		// ladder.
		{name: "scale", stem: "figscale", byName: true, run: func(o harness.Options) (table, error) {
			o.Nodes = harness.ScaleNodes
			if *quick {
				o.Nodes = harness.ScaleNodesQuick
			}
			if *scaleNodes != "" {
				ladder, err := parseNodeLadder(*scaleNodes)
				if err != nil {
					return nil, err
				}
				o.Nodes = ladder
			}
			return harness.Scale(o)
		}},
		// The repair ablation doubles the chaos grid (repair off and on).
		{name: "repair", stem: "figrepair", byName: true, run: adapt(harness.Repair)},
		// The mobility grid replays the dynamics scenarios with repair off
		// and on; its CSV lands as mobility.csv, the artifact name the
		// experiment contract pins.
		{name: "mobility", stem: "mobility", byName: true, run: adapt(harness.Mobility)},
	}

	// Fail fast on a bad figure name, before any profiling or output setup.
	var valid []string
	for _, x := range experiments {
		valid = append(valid, x.name)
	}
	if valid = append(valid, "all"); !slices.Contains(valid, *fig) {
		return fmt.Errorf("unknown figure %q (have: %s)", *fig, strings.Join(valid, ", "))
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

	var csvDir string
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		csvDir = *outDir
	}

	start := time.Now()
	ran := 0
	for _, x := range experiments {
		if *fig != x.name && (*fig != "all" || x.byName) {
			continue
		}
		ran++
		t0 := time.Now()
		tbl, err := x.run(opts)
		if err != nil {
			return fmt.Errorf("fig %s: %w", x.name, err)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		if paper, ok := tbl.(*harness.Table); ok && *plots {
			if err := paper.RenderCharts(out); err != nil {
				return err
			}
		}
		man := tbl.Manifest()
		fmt.Fprintf(out, "(fig %s regenerated in %v, %d kernel events, %.0f events/s)\n\n",
			x.name, time.Since(t0).Round(time.Second), man.KernelEvents, man.EventsPerSec)
		if csvDir != "" {
			if err := harness.WriteCSV(csvDir, x.stem+".csv", tbl.CSV); err != nil {
				return err
			}
			if err := man.Write(filepath.Join(csvDir, x.stem+".manifest.json")); err != nil {
				return err
			}
		}
	}

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
