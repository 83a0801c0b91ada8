package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// LifetimeRow is one density point of the lifetime study.
type LifetimeRow struct {
	Nodes int
	// BatteryJ holds the per-field calibrated budgets (idle draw for the
	// whole run plus the midpoint of the greedy probe's mean and peak
	// communication energy).
	BatteryJ stats.Sample
	// FirstDeath (seconds; censored at Censor, the run duration, when
	// nobody dies) and Deaths per scheme.
	GreedyFirstDeath stats.Sample
	GreedyDeaths     stats.Sample
	OppFirstDeath    stats.Sample
	OppDeaths        stats.Sample
	Censor           float64
}

// absorb folds one battery run into the row; probe runs only calibrate.
func (r *LifetimeRow) absorb(c cell, lo LedgerOutput) {
	first := lo.Lifetime.FirstDeath.Seconds()
	if lo.Lifetime.Deaths == 0 {
		first = r.Censor
	}
	deaths := float64(lo.Lifetime.Deaths)
	switch c.id.series {
	case core.SchemeGreedy.String():
		r.BatteryJ = append(r.BatteryJ, c.cfg.BatteryJ)
		r.GreedyFirstDeath = append(r.GreedyFirstDeath, first)
		r.GreedyDeaths = append(r.GreedyDeaths, deaths)
	case core.SchemeOpportunistic.String():
		r.OppFirstDeath = append(r.OppFirstDeath, first)
		r.OppDeaths = append(r.OppDeaths, deaths)
	}
}

// LifetimeTable is the network-lifetime study: the paper's closing claim —
// that the greedy path optimization "is essential for prolonging the
// lifetime of the highly-dense sensor networks" — measured directly. Every
// node gets the same battery (calibrated per field so that only
// hard-working relays can deplete it within the run); the schemes then
// compete on when their hottest nodes die and how many die. Its RunMeta
// counts the probe runs too.
type LifetimeTable struct{ Sheet[LifetimeRow] }

var lifetimeCols = []column[LifetimeRow]{
	{"nodes", func(r *LifetimeRow) any { return r.Nodes }},
	{"battery_j_mean", func(r *LifetimeRow) any { return r.BatteryJ.Mean() }},
	{"greedy_first_death_mean_s", func(r *LifetimeRow) any { return r.GreedyFirstDeath.Mean() }},
	{"greedy_first_death_ci", func(r *LifetimeRow) any { return r.GreedyFirstDeath.CI95() }},
	{"opp_first_death_mean_s", func(r *LifetimeRow) any { return r.OppFirstDeath.Mean() }},
	{"opp_first_death_ci", func(r *LifetimeRow) any { return r.OppFirstDeath.CI95() }},
	{"greedy_deaths_mean", func(r *LifetimeRow) any { return r.GreedyDeaths.Mean() }},
	{"opp_deaths_mean", func(r *LifetimeRow) any { return r.OppDeaths.Mean() }},
	{"censor_s", func(r *LifetimeRow) any { return r.Censor }},
}

// LifetimeStudy runs the study over o.Nodes with o.Fields fields per point:
// first one greedy probe per (nodes, field) to calibrate that field's
// battery, then one battery run per scheme. Runs fold in (probe, greedy,
// opportunistic) order per field.
func LifetimeStudy(o Options) (*LifetimeTable, error) {
	e, err := startEngine(o, len(o.Nodes)*o.Fields*(1+len(bothSchemes)))
	if err != nil {
		return nil, err
	}
	defer e.close()
	rows := make([]LifetimeRow, len(o.Nodes))
	var probes []cell
	for ri, nodes := range o.Nodes {
		rows[ri] = LifetimeRow{Nodes: nodes, Censor: o.Duration.Seconds()}
		for f := 0; f < o.Fields; f++ {
			probes = append(probes, cell{id: cellID{figure: "lifetime", series: "probe", x: nodes, field: f},
				cfg: baseConfig(o, core.SchemeGreedy, nodes, f), row: ri})
		}
	}
	probed, err := e.run(probes)
	if err != nil {
		return nil, err
	}
	var runs []cell
	for i, p := range probes {
		c := probed[i].Metrics.Concentration
		battery := p.cfg.Energy.IdlePower*o.Duration.Seconds() + (c.MeanNodeJ+c.MaxNodeJ)/2
		for _, s := range bothSchemes {
			cfg := baseConfig(o, s, p.id.x, p.id.field)
			cfg.BatteryJ = battery
			runs = append(runs, cell{id: cellID{figure: "lifetime", series: s.String(), x: p.id.x, field: p.id.field},
				cfg: cfg, row: p.row})
		}
	}
	ran, err := e.run(runs)
	if err != nil {
		return nil, err
	}
	n := len(bothSchemes)
	var cells []cell
	var outs []LedgerOutput
	for i, p := range probes {
		cells = append(append(cells, p), runs[n*i:n*(i+1)]...)
		outs = append(append(outs, probed[i]), ran[n*i:n*(i+1)]...)
	}
	meta, err := fold(o, RunMeta{Figure: "lifetime", Schemes: schemeNames(bothSchemes), Xs: o.Nodes}, outs,
		func(i int) { rows[cells[i].row].absorb(cells[i], outs[i]) })
	if err != nil {
		return nil, err
	}
	return &LifetimeTable{Sheet[LifetimeRow]{RunMeta: meta, Rows: rows, cols: lifetimeCols}}, nil
}

// Render writes the study as an aligned text table.
func (t *LifetimeTable) Render(w io.Writer) error {
	fmt.Fprintf(w, "== lifetime: time to first battery death and death counts (censored at %.0f s) ==\n",
		t.Duration.Seconds())
	header := fmt.Sprintf("%8s %12s %18s %18s %14s %14s",
		"nodes", "battery J", "greedy 1st death", "opport. 1st death", "greedy deaths", "opport. deaths")
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%8d %12.2f %16.1fs %16.1fs %14.1f %14.1f\n",
			r.Nodes, r.BatteryJ.Mean(),
			r.GreedyFirstDeath.Mean(), r.OppFirstDeath.Mean(),
			r.GreedyDeaths.Mean(), r.OppDeaths.Mean())
	}
	_, err := fmt.Fprintln(w)
	return err
}
