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
	"repro/internal/topology"
)

// MobilityScenario is one dynamics arm of the figmobility grid.
type MobilityScenario struct {
	Name     string
	Mobility topology.MobilityConfig
	Churn    failure.ChurnConfig
}

// MobilityScenarios returns the grid's dynamics arms: a static control, the
// bounded random walk, random waypoint at pedestrian and vehicular speeds,
// and pure population churn (no movement).
func MobilityScenarios(duration time.Duration) []MobilityScenario {
	slow := topology.DefaultMobilityConfig(topology.MobilityWaypoint)
	slow.SpeedMin, slow.SpeedMax = 0.5, 1.5
	fast := topology.DefaultMobilityConfig(topology.MobilityWaypoint)
	fast.SpeedMin, fast.SpeedMax = 4, 8
	fast.Pause = time.Second
	return []MobilityScenario{
		{Name: "static"},
		{Name: "walk", Mobility: topology.DefaultMobilityConfig(topology.MobilityWalk)},
		{Name: "waypoint-slow", Mobility: slow},
		{Name: "waypoint-fast", Mobility: fast},
		{Name: "churn", Churn: failure.ChurnConfig{
			JoinFraction:  0.2,
			JoinWindow:    duration / 2,
			LeaveInterval: duration / 10,
		}},
	}
}

// MobilityTable is the dynamics grid ("figmobility"): each scenario rerun
// with the repair layer off and on, paired seeds, one row per (scenario,
// repair mode).
type MobilityTable struct{ Sheet[Row] }

var mobilityCols = slices.Concat([]column[Row]{
	{"scenario", func(r *Row) any { return r.Scenario }},
	{"repair", func(r *Row) any { return r.Repair }},
}, panelCols, ttrCols, []column[Row]{
	{"ttr_max_s", func(r *Row) any { return r.MaxTTR }},
	{"mean_speed_mps", func(r *Row) any { return r.MeanSpeed.Mean() }},
	{"link_changes", func(r *Row) any { return r.LinkChanges }},
	{"joins", func(r *Row) any { return r.Joins }},
	{"departures", func(r *Row) any { return r.Departures }},
	{"topo_faults", func(r *Row) any { return r.TopoFaults }},
	{"violations", func(r *Row) any { return r.Violations }},
	{"bucket0_commj", func(r *Row) any { return r.bucket(0) }},
	{"bucket1_commj", func(r *Row) any { return r.bucket(1) }},
	{"bucket2_commj", func(r *Row) any { return r.bucket(2) }},
	{"bucket3_commj", func(r *Row) any { return r.bucket(3) }},
}, lineageCols)

// Mobility runs the dynamics grid: every mobility/churn scenario with the
// self-healing layer off and on, greedy scheme, middle density, paired
// seeds, the invariant checker always on. The acceptance bar is zero
// invariant violations on the repair-on arm and a visible delivery-ratio
// cost as node speed rises.
func Mobility(o Options) (*MobilityTable, error) {
	scenarios := MobilityScenarios(o.Duration)
	f := figure{meta: RunMeta{Figure: "figmobility", Schemes: []string{core.SchemeGreedy.String()}}, cols: mobilityCols}
	for _, sc := range scenarios {
		f.rows = append(f.rows, repairRows(sc.Name)...)
	}
	f.cfg = func(ri, field int) core.Config {
		sc := scenarios[ri/len(repairModes)]
		cfg := repairConfig(o, repairModes[ri%len(repairModes)], field)
		cfg.Mobility = sc.Mobility
		cfg.Churn = sc.Churn
		cfg.Chaos = &chaos.Config{CheckInvariants: true}
		return cfg
	}
	sh, err := f.run(o)
	if err != nil {
		return nil, err
	}
	return &MobilityTable{sh}, nil
}

// Render writes the grid as an aligned text table, one row per (scenario,
// repair mode), and a warning line if a repair-on run broke an invariant.
func (t *MobilityTable) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== figmobility: topology dynamics (greedy, %d nodes, %d fields) ==\n",
		chaosNodes, t.Fields); err != nil {
		return err
	}
	header := fmt.Sprintf("%14s %6s %7s %8s %7s %7s %7s %8s %6s %6s %6s %6s",
		"scenario", "repair", "ratio", "delay_s", "ttr_s", "maxttr", "speed",
		"links", "joins", "leaves", "viol", "faults")
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%14s %6s %7.3f %8.3f %s %7.2f %s %8d %6d %6d %6d %6d\n",
			r.Scenario, onOff(r.Repair),
			r.Ratio.Mean(), r.Delay.Mean(),
			dash(r.TTR, 7), r.MaxTTR, dash(r.MeanSpeed, 7),
			r.LinkChanges, r.Joins, r.Departures,
			r.Violations, r.TopoFaults)
	}
	_, err := fmt.Fprintln(w)
	if v := t.RepairOnViolations(); v != 0 && err == nil {
		_, err = fmt.Fprintf(w, "WARNING: %d protocol-invariant violations on the repair-on arm\n", v)
	}
	return err
}

// RepairOnViolations sums invariant breaches over the repair-on arm — the
// experiment's acceptance criterion is zero.
func (t *MobilityTable) RepairOnViolations() int { return violations(t.Rows, true) }
