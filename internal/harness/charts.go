package harness

import (
	"io"

	"repro/internal/plot"
)

// Charts converts the table's panels into ASCII charts (one per metric,
// one series per scheme), x = the sweep coordinate.
func (t *Table) Charts() []plot.Chart {
	panels := []struct {
		name string
		get  func(Row) float64
	}{
		{"(a) average dissipated energy [J/node/event]", func(c Row) float64 { return c.Energy.Mean() }},
		{"(a') communication energy [J/node/event]", func(c Row) float64 { return c.CommEnergy.Mean() }},
		{"(b) average delay [s/event]", func(c Row) float64 { return c.Delay.Mean() }},
		{"(c) distinct-event delivery ratio", func(c Row) float64 { return c.Ratio.Mean() }},
	}
	xs := make([]float64, len(t.Xs))
	for i, x := range t.Xs {
		xs[i] = float64(x)
	}
	var charts []plot.Chart
	for _, p := range panels {
		ch := plot.Chart{
			Title:  t.Figure + " " + p.name,
			XLabel: t.XLabel,
			Xs:     xs,
		}
		for _, s := range t.Schemes {
			ys := make([]float64, len(t.Xs))
			for i := range t.Xs {
				ys[i] = p.get(t.Cells[s][i])
			}
			ch.Series = append(ch.Series, plot.Series{Name: s, Ys: ys})
		}
		charts = append(charts, ch)
	}
	return charts
}

// RenderCharts draws every panel chart to w.
func (t *Table) RenderCharts(w io.Writer) error {
	for _, ch := range t.Charts() {
		ch := ch
		if err := ch.Render(w); err != nil {
			return err
		}
	}
	return nil
}
