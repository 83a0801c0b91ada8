package harness

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// baseConfig returns the paper's default methodology with the harness
// duration applied.
func baseConfig(o Options, scheme core.Scheme, nodes, field int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Nodes = nodes
	cfg.Duration = o.Duration
	cfg.Seed = seedFor(o.BaseSeed, nodes, field)
	return cfg
}

var bothSchemes = []core.Scheme{core.SchemeGreedy, core.SchemeOpportunistic}

// schemeNames returns the schemes' names, in order.
func schemeNames(schemes []core.Scheme) []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.String()
	}
	return names
}

// Table is one of the paper's figures: a set of per-scheme series over a
// sweep, one Row per (scheme, x), scheme-major.
type Table struct {
	Sheet[Row]
	Title  string
	XLabel string
	// Cells indexes Rows by scheme: Cells[scheme][i] is the row at Xs[i].
	Cells map[string][]Row
}

// sweep regenerates one paper figure: cfgFor over xs × schemes × fields,
// one row per (scheme, x).
func sweep(o Options, id, title, xlabel string, schemes []core.Scheme, xs []int,
	cfgFor func(scheme core.Scheme, x, field int) core.Config) (*Table, error) {
	f := figure{meta: RunMeta{Figure: id, Schemes: schemeNames(schemes), Xs: xs}}
	for _, s := range schemes {
		for _, x := range xs {
			f.rows = append(f.rows, Row{Series: s.String(), Scheme: s.String(), X: x})
		}
	}
	f.cols = slices.Concat([]column[Row]{
		{"scheme", func(r *Row) any { return r.Scheme }},
		{xlabel, func(r *Row) any { return r.X }},
		{"density", func(r *Row) any { return fmt.Sprintf("%.2f", r.Density.Mean()) }},
	},
		meanCI("energy", func(r *Row) stats.Sample { return r.Energy }),
		meanCI("comm", func(r *Row) stats.Sample { return r.CommEnergy }),
		meanCI("delay", func(r *Row) stats.Sample { return r.Delay }),
		meanCI("ratio", func(r *Row) stats.Sample { return r.Ratio }),
		lineageCols)
	f.cfg = func(ri, field int) core.Config {
		return cfgFor(schemes[ri/len(xs)], xs[ri%len(xs)], field)
	}
	sh, err := f.run(o)
	if err != nil {
		return nil, err
	}
	t := &Table{Sheet: sh, Title: title, XLabel: xlabel, Cells: map[string][]Row{}}
	for i, s := range sh.Schemes {
		t.Cells[s] = sh.Rows[i*len(xs) : (i+1)*len(xs)]
	}
	return t, nil
}

// Fig5 regenerates Figure 5: greedy vs. opportunistic aggregation over
// network density (50-350 nodes, five corner sources, one sink, perfect
// aggregation, no failures).
func Fig5(o Options) (*Table, error) {
	return sweep(o, "fig5", "Greedy vs. opportunistic aggregation by density",
		"nodes", bothSchemes, o.Nodes,
		func(s core.Scheme, nodes, field int) core.Config {
			return baseConfig(o, s, nodes, field)
		})
}

// Fig6 regenerates Figure 6: the density sweep under node failures (20% of
// non-endpoint nodes off at all times, re-drawn every 30 s).
func Fig6(o Options) (*Table, error) {
	return sweep(o, "fig6", "Impact of node failures",
		"nodes", bothSchemes, o.Nodes,
		func(s core.Scheme, nodes, field int) core.Config {
			cfg := baseConfig(o, s, nodes, field)
			withWaves(&cfg)
			return cfg
		})
}

// Fig7 regenerates Figure 7: the density sweep with the five sources placed
// uniformly at random over the whole field instead of the corner region.
func Fig7(o Options) (*Table, error) {
	return sweep(o, "fig7", "Impact of random source placement",
		"nodes", bothSchemes, o.Nodes,
		func(s core.Scheme, nodes, field int) core.Config {
			cfg := baseConfig(o, s, nodes, field)
			cfg.Workload.Placement = workload.PlaceRandom
			return cfg
		})
}

// Fig8Sinks is the paper's sink-count sweep (Figure 8).
var Fig8Sinks = []int{1, 2, 3, 4, 5}

// Fig8 regenerates Figure 8: 1..5 sinks in the 350-node field; the first
// sink in the top-right corner, the rest scattered.
func Fig8(o Options) (*Table, error) {
	return sweep(o, "fig8", "Impact of the number of sinks (350 nodes)",
		"sinks", bothSchemes, Fig8Sinks,
		func(s core.Scheme, sinks, field int) core.Config {
			cfg := baseConfig(o, s, maxNodes(o), field)
			cfg.Workload.Sinks = sinks
			return cfg
		})
}

// Fig9Sources is the paper's source-count sweep ("2, 5, 8, 11, and 14
// sources").
var Fig9Sources = []int{2, 5, 8, 11, 14}

// Fig9 regenerates Figure 9: the source-count sweep in the 350-node field
// under perfect aggregation.
func Fig9(o Options) (*Table, error) {
	return sweep(o, "fig9", "Impact of the number of sources (350 nodes)",
		"sources", bothSchemes, Fig9Sources,
		func(s core.Scheme, sources, field int) core.Config {
			cfg := baseConfig(o, s, maxNodes(o), field)
			cfg.Workload.Sources = sources
			return cfg
		})
}

// Fig10 regenerates Figure 10: the source-count sweep under the linear
// aggregation function z(S) = d·28 + 36 bytes.
func Fig10(o Options) (*Table, error) {
	return sweep(o, "fig10", "Impact of the linear aggregation (350 nodes)",
		"sources", bothSchemes, Fig9Sources,
		func(s core.Scheme, sources, field int) core.Config {
			cfg := baseConfig(o, s, maxNodes(o), field)
			cfg.Workload.Sources = sources
			cfg.Diffusion.Agg = agg.Linear{}
			return cfg
		})
}

// AblationTruncation compares the paper's source-transform truncation rule
// with the conservative event-cover rule (§4.3) over the density sweep.
func AblationTruncation(o Options) (*Table, error) {
	return sweep(o, "ablation-truncation", "Truncation rule ablation: source cover vs. event cover",
		"nodes", []core.Scheme{core.SchemeGreedy, core.SchemeGreedyEventCover}, o.Nodes,
		func(s core.Scheme, nodes, field int) core.Config {
			return baseConfig(o, s, nodes, field)
		})
}

// AblationReinforceDelay sweeps the greedy scheme's reinforcement timer Tp
// at the densest field: Tp must be long enough for incremental cost
// messages to compete with the flood.
func AblationReinforceDelay(o Options) (*Table, error) {
	tps := []int{0, 250, 500, 1000, 2000} // milliseconds
	return sweep(o, "ablation-tp", "Reinforcement timer Tp ablation (greedy, 350 nodes)",
		"tp_ms", []core.Scheme{core.SchemeGreedy}, tps,
		func(s core.Scheme, tpMS, field int) core.Config {
			cfg := baseConfig(o, s, maxNodes(o), field)
			cfg.Diffusion.ReinforceDelay = time.Duration(tpMS) * time.Millisecond
			return cfg
		})
}

// AblationAggregationDelay sweeps the aggregation delay Ta for both schemes
// at the densest field, trading delay for aggregation opportunity.
func AblationAggregationDelay(o Options) (*Table, error) {
	tas := []int{125, 250, 500, 1000} // milliseconds
	return sweep(o, "ablation-ta", "Aggregation delay Ta ablation (350 nodes)",
		"ta_ms", bothSchemes, tas,
		func(s core.Scheme, taMS, field int) core.Config {
			cfg := baseConfig(o, s, maxNodes(o), field)
			cfg.Diffusion.AggregationDelay = time.Duration(taMS) * time.Millisecond
			if nw := 4 * cfg.Diffusion.AggregationDelay; nw > cfg.Diffusion.NegReinforceWindow {
				cfg.Diffusion.NegReinforceWindow = nw // keep Tn = 4·Ta, as in the paper
			}
			return cfg
		})
}

// AblationRTSCTS re-runs the density sweep with the 802.11 RTS/CTS
// handshake enabled for unicast data, quantifying how much the paper's
// comparison depends on the basic-access MAC.
func AblationRTSCTS(o Options) (*Table, error) {
	return sweep(o, "ablation-rtscts", "Density sweep with RTS/CTS virtual carrier sense",
		"nodes", bothSchemes, o.Nodes,
		func(s core.Scheme, nodes, field int) core.Config {
			cfg := baseConfig(o, s, nodes, field)
			cfg.MAC.UseRTSCTS = true
			return cfg
		})
}

// Baselines contextualizes both aggregation schemes against the classical
// reference points — flooding and omniscient multicast — over the density
// sweep (the calibration the paper's metrics were originally built for).
func Baselines(o Options) (*Table, error) {
	schemes := []core.Scheme{
		core.SchemeGreedy, core.SchemeOpportunistic,
		core.SchemeOmniscient, core.SchemeFlooding,
	}
	return sweep(o, "baselines", "Aggregation schemes vs. flooding and omniscient multicast",
		"nodes", schemes, o.Nodes,
		func(s core.Scheme, nodes, field int) core.Config {
			return baseConfig(o, s, nodes, field)
		})
}

func maxNodes(o Options) int {
	max := o.Nodes[0]
	for _, n := range o.Nodes[1:] {
		if n > max {
			max = n
		}
	}
	return max
}
