package harness

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/geom"
)

// chaosNodes is the field size for the robustness grid: the paper's middle
// density, where both schemes are competitive and multi-hop trees are real.
const chaosNodes = 150

// ChaosScenarios is the robustness grid: each entry stresses one fault class
// from the chaos taxonomy (plus a clean baseline and the §5.3 wave schedule),
// all with the runtime invariant checker armed.
var ChaosScenarios = []struct {
	Name string
	// Config builds a fresh chaos configuration for one run of the given
	// duration (time-windowed faults scale with it).
	Config func(d time.Duration) chaos.Config
}{
	{"baseline", func(time.Duration) chaos.Config {
		return chaos.Config{CheckInvariants: true}
	}},
	{"waves", func(time.Duration) chaos.Config {
		return chaos.DefaultConfig()
	}},
	{"loss10", func(time.Duration) chaos.Config {
		return chaos.Config{Loss: chaos.LossConfig{Drop: 0.10}, CheckInvariants: true}
	}},
	{"burst", func(time.Duration) chaos.Config {
		bc := chaos.DefaultBurstConfig()
		return chaos.Config{
			Loss:            chaos.LossConfig{Burst: &bc},
			CheckInvariants: true,
		}
	}},
	{"asym", func(time.Duration) chaos.Config {
		return chaos.Config{
			Loss:            chaos.LossConfig{AsymmetryFraction: 0.3, AsymmetryDrop: 0.5},
			CheckInvariants: true,
		}
	}},
	{"amnesia", func(time.Duration) chaos.Config {
		return chaos.Config{
			Amnesia:         chaos.AmnesiaConfig{MeanInterval: 10 * time.Second, Downtime: 2 * time.Second},
			CheckInvariants: true,
		}
	}},
	{"partition", func(d time.Duration) chaos.Config {
		return chaos.Config{
			// A diagonal cut across the 200 m field for the middle third of
			// the run, separating the corner workload from the far corner.
			Partitions: []chaos.Partition{{
				Start: d / 3, End: 2 * d / 3,
				A: geom.Point{X: -10, Y: 210}, B: geom.Point{X: 210, Y: -10},
			}},
			CheckInvariants: true,
		}
	}},
	{"combined", func(time.Duration) chaos.Config {
		fc := failure.DefaultConfig()
		return chaos.Config{
			Waves:           &fc,
			Loss:            chaos.LossConfig{Drop: 0.05, AsymmetryFraction: 0.2, AsymmetryDrop: 0.3},
			Amnesia:         chaos.AmnesiaConfig{MeanInterval: 15 * time.Second, Downtime: 2 * time.Second},
			CheckInvariants: true,
		}
	}},
}

// ChaosTable is the regenerated robustness grid ("figchaos"): one row per
// (scenario, scheme).
type ChaosTable struct{ Sheet[Row] }

var chaosCols = slices.Concat([]column[Row]{
	{"scenario", func(r *Row) any { return r.Scenario }},
	{"scheme", func(r *Row) any { return r.Scheme }},
}, panelCols, ttrCols, []column[Row]{
	{"dip_mean", func(r *Row) any { return r.Dip.Mean() }},
	{"avail_mean", func(r *Row) any { return r.Availability.Mean() }},
	{"faults", func(r *Row) any { return r.Faults }},
	{"crashes", func(r *Row) any { return r.Crashes }},
	{"violations", func(r *Row) any { return r.Violations }},
	{"link_loss", func(r *Row) any { return r.LinkLoss }},
})

// Chaos runs the robustness grid: every scenario × both schemes at the
// middle density, averaged over the sampled fields with the same paired
// seeds as the paper figures. The acceptance bar for the grid is a clean
// invariant report on every run.
func Chaos(o Options) (*ChaosTable, error) {
	f := figure{meta: RunMeta{Figure: "figchaos", Schemes: schemeNames(bothSchemes)}, cols: chaosCols}
	for _, sc := range ChaosScenarios {
		for _, s := range bothSchemes {
			f.rows = append(f.rows, Row{Series: sc.Name + "/" + s.String(), Scenario: sc.Name, Scheme: s.String(), X: chaosNodes})
		}
	}
	f.cfg = func(ri, field int) core.Config {
		cfg := baseConfig(o, bothSchemes[ri%len(bothSchemes)], chaosNodes, field)
		cc := ChaosScenarios[ri/len(bothSchemes)].Config(o.Duration)
		cfg.Chaos = &cc
		return cfg
	}
	sh, err := f.run(o)
	if err != nil {
		return nil, err
	}
	return &ChaosTable{sh}, nil
}

// Render writes the grid as an aligned text table, one row per
// (scenario, scheme), and a warning line if any run broke an invariant.
func (t *ChaosTable) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== figchaos: robustness grid (%d nodes, %d fields) ==\n",
		chaosNodes, t.Fields); err != nil {
		return err
	}
	header := fmt.Sprintf("%10s %14s %7s %8s %10s %7s %6s %6s %7s %7s %6s %6s",
		"scenario", "scheme", "ratio", "delay_s", "energy", "ttr_s", "dip", "avail",
		"faults", "crashes", "viol", "loss")
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%10s %14s %7.3f %8.3f %10.3g %s %s %s %7d %7d %6d %6d\n",
			r.Scenario, r.Scheme,
			r.Ratio.Mean(), r.Delay.Mean(), r.Energy.Mean(),
			dash(r.TTR, 7), dash(r.Dip, 6), dash(r.Availability, 6),
			r.Faults, r.Crashes, r.Violations, r.LinkLoss)
	}
	_, err := fmt.Fprintln(w)
	if v := t.TotalViolations(); v != 0 && err == nil {
		_, err = fmt.Fprintf(w, "WARNING: %d protocol-invariant violations across the grid\n", v)
	}
	return err
}

// TotalViolations sums invariant breaches over the whole grid — the
// experiment's acceptance criterion is zero.
func (t *ChaosTable) TotalViolations() int { return violations(t.Rows, false) }
