package main

import (
	"time"

	"repro/internal/agg"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/harness"
	"repro/internal/obs"
)

// The benchmark may only use the harness's Options, figure functions,
// MobilityScenarios and LedgerOutput fields, plus core.Run, DefaultConfig,
// the basic Config fields and the zero obs.Config that Options.Telemetry
// stands for, so that it keeps compiling while internals are deleted. The
// harness constants it needs are therefore restated here, and the set-up
// cells below mirror the harness's own cell configurations.

var (
	bothSchemes = []core.Scheme{core.SchemeGreedy, core.SchemeOpportunistic}
	// fig10Sources is the paper's source-count sweep (harness.Fig9Sources).
	fig10Sources = []int{2, 5, 8, 11, 14}
)

// mobilityNodes is the mobility grid's fixed population (the harness's
// middle-density chaos field).
const mobilityNodes = 150

// size is how much of a figure one pass regenerates.
type size struct {
	fields   int
	duration time.Duration
	nodes    []int
}

func (s size) options(seed int64) harness.Options {
	return harness.Options{
		Fields:    s.fields,
		Duration:  s.duration,
		Nodes:     s.nodes,
		BaseSeed:  seed,
		Workers:   1,
		Telemetry: true,
	}
}

// workload is one named benchmark input: a figure regenerated through its
// public harness entry point.
type workload struct {
	name string
	// bench is the size one measured pass regenerates; mini is the
	// miniature the smoke test runs through the same code path.
	bench, mini size
	// run regenerates the figure; cells lists the configuration of every
	// cell run makes, in the harness's seed grid, for the set-up pass.
	run   func(harness.Options) error
	cells func(s size, seed int64) []core.Config
}

// cellConfig is the harness's base cell: the paper's methodology at one
// density, seeded from the sweep's seed grid BaseSeed + nodes·1000 + field,
// with telemetry on as Options.Telemetry turns it on for every cell.
func cellConfig(s size, seed int64, scheme core.Scheme, nodes, field int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Nodes = nodes
	cfg.Duration = s.duration
	cfg.Seed = seed + int64(nodes)*1000 + int64(field)
	cfg.Telemetry = &obs.Config{}
	return cfg
}

func maxNodes(nodes []int) int {
	m := nodes[0]
	for _, n := range nodes[1:] {
		m = max(m, n)
	}
	return m
}

var workloads = []workload{
	{
		name:  "fig5",
		bench: size{fields: 1, duration: 160 * time.Second, nodes: []int{50, 100, 150, 200, 250, 300, 350}},
		mini:  size{fields: 1, duration: 5 * time.Second, nodes: []int{50, 100}},
		run: func(o harness.Options) error {
			_, err := harness.Fig5(o)
			return err
		},
		cells: func(s size, seed int64) []core.Config {
			var cfgs []core.Config
			for _, sc := range bothSchemes {
				for _, n := range s.nodes {
					for f := 0; f < s.fields; f++ {
						cfgs = append(cfgs, cellConfig(s, seed, sc, n, f))
					}
				}
			}
			return cfgs
		},
	},
	{
		name:  "fig10",
		bench: size{fields: 3, duration: 40 * time.Second, nodes: []int{350}},
		mini:  size{fields: 1, duration: 5 * time.Second, nodes: []int{100}},
		run: func(o harness.Options) error {
			_, err := harness.Fig10(o)
			return err
		},
		cells: func(s size, seed int64) []core.Config {
			var cfgs []core.Config
			for _, sc := range bothSchemes {
				for _, k := range fig10Sources {
					for f := 0; f < s.fields; f++ {
						cfg := cellConfig(s, seed, sc, maxNodes(s.nodes), f)
						cfg.Workload.Sources = k
						cfg.Diffusion.Agg = agg.Linear{}
						cfgs = append(cfgs, cfg)
					}
				}
			}
			return cfgs
		},
	},
	{
		name:  "mobility",
		bench: size{fields: 16, duration: 20 * time.Second, nodes: []int{mobilityNodes}},
		mini:  size{fields: 1, duration: 5 * time.Second, nodes: []int{mobilityNodes}},
		run: func(o harness.Options) error {
			_, err := harness.Mobility(o)
			return err
		},
		cells: func(s size, seed int64) []core.Config {
			var cfgs []core.Config
			for _, sc := range harness.MobilityScenarios(s.duration) {
				for _, repair := range []bool{false, true} {
					for f := 0; f < s.fields; f++ {
						cfg := cellConfig(s, seed, core.SchemeGreedy, mobilityNodes, f)
						cfg.Mobility = sc.Mobility
						cfg.Churn = sc.Churn
						cfg.Chaos = &chaos.Config{CheckInvariants: true}
						if repair {
							cfg.Diffusion.Repair = diffusion.DefaultRepairParams()
						}
						cfgs = append(cfgs, cfg)
					}
				}
			}
			return cfgs
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
