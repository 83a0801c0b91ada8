package harness

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/diffusion"
)

// RepairTable is the self-healing ablation grid ("figrepair"): the chaos
// scenarios rerun with the repair layer off and on, paired seeds, one row
// per (scenario, repair mode). The grid fixes the scheme to greedy — the
// repair layer is strategy-agnostic, and pairing on/off runs on the same
// seeds isolates its effect.
type RepairTable struct{ Sheet[Row] }

// repairModes orders the ablation arms: off first, on second.
var repairModes = []bool{false, true}

// repairRows returns a scenario's rows for the repair-off and repair-on
// arms.
func repairRows(scenario string) []Row {
	rows := make([]Row, len(repairModes))
	for i, mode := range repairModes {
		rows[i] = Row{Series: fmt.Sprintf("%s/repair=%t", scenario, mode), Scenario: scenario,
			Repair: mode, X: chaosNodes}
	}
	return rows
}

// repairConfig is one greedy run at the middle density, with the repair
// layer on or off.
func repairConfig(o Options, repair bool, field int) core.Config {
	cfg := baseConfig(o, core.SchemeGreedy, chaosNodes, field)
	if repair {
		cfg.Diffusion.Repair = diffusion.DefaultRepairParams()
	}
	return cfg
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

var repairCols = slices.Concat([]column[Row]{
	{"scenario", func(r *Row) any { return r.Scenario }},
	{"repair", func(r *Row) any { return r.Repair }},
}, panelCols, ttrCols, []column[Row]{
	{"ttr_max_s", func(r *Row) any { return r.MaxTTR }},
	{"outage_mean_s", func(r *Row) any { return r.OutageSeconds.Mean() }},
	{"generated_in_outage", func(r *Row) any { return r.GeneratedInOutage }},
	{"lost_in_outage", func(r *Row) any { return r.LostInOutage }},
	{"probes", func(r *Row) any { return r.ProbesSent }},
	{"watchdog_fires", func(r *Row) any { return r.RepairStats.WatchdogFires }},
	{"reinforces", func(r *Row) any { return r.RepairStats.Reinforces }},
	{"probe_replies", func(r *Row) any { return r.RepairStats.ProbeReplies }},
	{"ctrl_retries", func(r *Row) any { return r.RepairStats.CtrlRetries }},
	{"data_rebuffers", func(r *Row) any { return r.RepairStats.DataRebuffers }},
	{"fallback_broadcasts", func(r *Row) any { return r.RepairStats.FallbackBroadcasts }},
	{"faults", func(r *Row) any { return r.Faults }},
	{"crashes", func(r *Row) any { return r.Crashes }},
	{"violations", func(r *Row) any { return r.Violations }},
})

// Repair runs the self-healing ablation: every chaos scenario with the
// repair layer off and on, greedy scheme, middle density, the same paired
// seeds as the figchaos grid. The acceptance bar is zero invariant
// violations in both arms and a delivery-ratio win for repair-on under the
// crash and partition scenarios.
func Repair(o Options) (*RepairTable, error) {
	f := figure{meta: RunMeta{Figure: "figrepair", Schemes: []string{core.SchemeGreedy.String()}}, cols: repairCols}
	for _, sc := range ChaosScenarios {
		f.rows = append(f.rows, repairRows(sc.Name)...)
	}
	f.cfg = func(ri, field int) core.Config {
		cfg := repairConfig(o, repairModes[ri%len(repairModes)], field)
		ChaosScenarios[ri/len(repairModes)].Apply(&cfg)
		return cfg
	}
	sh, err := f.run(o)
	if err != nil {
		return nil, err
	}
	return &RepairTable{sh}, nil
}

// Render writes the grid as an aligned text table, one row per (scenario,
// repair mode), and a warning line if any run broke an invariant.
func (t *RepairTable) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== figrepair: self-healing ablation (greedy, %d nodes, %d fields) ==\n",
		chaosNodes, t.Fields); err != nil {
		return err
	}
	header := fmt.Sprintf("%10s %6s %7s %8s %7s %7s %8s %6s %7s %7s %6s %6s",
		"scenario", "repair", "ratio", "delay_s", "ttr_s", "maxttr", "outage_s",
		"lost", "probes", "retries", "viol", "faults")
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%10s %6s %7.3f %8.3f %s %7.2f %s %6d %7d %7d %6d %6d\n",
			r.Scenario, onOff(r.Repair),
			r.Ratio.Mean(), r.Delay.Mean(),
			dash(r.TTR, 7), r.MaxTTR, dash(r.OutageSeconds, 8),
			r.LostInOutage, r.ProbesSent, r.RepairStats.CtrlRetries,
			r.Violations, r.Faults)
	}
	_, err := fmt.Fprintln(w)
	if v := t.TotalViolations(); v != 0 && err == nil {
		_, err = fmt.Fprintf(w, "WARNING: %d protocol-invariant violations across the grid\n", v)
	}
	return err
}

// TotalViolations sums invariant breaches over both arms of the grid — the
// experiment's acceptance criterion is zero.
func (t *RepairTable) TotalViolations() int { return violations(t.Rows, false) }
