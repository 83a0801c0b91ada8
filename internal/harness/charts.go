package harness

import (
	"io"

	"repro/internal/plot"
)

// Charts converts the table's panels into ASCII charts (one per metric,
// one series per scheme), x = the sweep coordinate.
func (t *Table) Charts() []plot.Chart {
	xs := make([]float64, len(t.Xs))
	for i, x := range t.Xs {
		xs[i] = float64(x)
	}
	var charts []plot.Chart
	for _, p := range panels {
		title := t.Figure + " " + p.name
		if p.unit != "" {
			title += " [" + p.unit + "]"
		}
		ch := plot.Chart{
			Title:  title,
			XLabel: t.XLabel,
			Xs:     xs,
		}
		for _, s := range t.Schemes {
			ys := make([]float64, len(t.Xs))
			for i := range t.Xs {
				ys[i] = p.sample(&t.Cells[s][i]).Mean()
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
