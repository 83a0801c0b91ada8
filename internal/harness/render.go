package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// Render writes the table as the paper's three panels (a: average
// dissipated energy, b: average delay, c: distinct-event delivery ratio)
// in aligned text, one row per sweep value, one column pair per scheme.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.Figure, t.Title); err != nil {
		return err
	}
	panels := []struct {
		name string
		get  func(Row) (mean, ci float64)
		unit string
	}{
		{"(a) average dissipated energy", func(c Row) (float64, float64) { return c.Energy.Mean(), c.Energy.CI95() }, "J/node/event"},
		{"(a') communication energy", func(c Row) (float64, float64) { return c.CommEnergy.Mean(), c.CommEnergy.CI95() }, "J/node/event (tx+rx)"},
		{"(b) average delay", func(c Row) (float64, float64) { return c.Delay.Mean(), c.Delay.CI95() }, "s/received distinct event"},
		{"(c) distinct-event delivery ratio", func(c Row) (float64, float64) { return c.Ratio.Mean(), c.Ratio.CI95() }, ""},
	}
	for _, p := range panels {
		fmt.Fprintf(w, "\n-- %s %s\n", p.name, p.unit)
		header := fmt.Sprintf("%10s %9s", t.XLabel, "density")
		for _, s := range t.Schemes {
			header += fmt.Sprintf(" %22s", s)
		}
		if len(t.Schemes) == 2 {
			header += fmt.Sprintf(" %9s", "delta")
		}
		fmt.Fprintln(w, header)
		fmt.Fprintln(w, strings.Repeat("-", len(header)))
		for i, x := range t.Xs {
			density := t.Cells[t.Schemes[0]][i].Density.Mean()
			row := fmt.Sprintf("%10d %9.1f", x, density)
			var means []float64
			for _, s := range t.Schemes {
				mean, ci := p.get(t.Cells[s][i])
				means = append(means, mean)
				row += fmt.Sprintf(" %12.6g ±%7.2g", mean, ci)
			}
			if len(means) == 2 && means[1] != 0 {
				row += fmt.Sprintf(" %8.0f%%", 100*(means[0]/means[1]-1))
			}
			fmt.Fprintln(w, row)
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// pair returns the rows of schemes a and b at sweep index i.
func (t *Table) pair(a, b string, i int) (*Row, *Row, error) {
	ca, okA := t.Cells[a]
	cb, okB := t.Cells[b]
	switch {
	case !okA:
		return nil, nil, fmt.Errorf("harness: unknown scheme %q", a)
	case !okB:
		return nil, nil, fmt.Errorf("harness: unknown scheme %q", b)
	case i < 0 || i >= len(t.Xs):
		return nil, nil, fmt.Errorf("harness: index %d out of range", i)
	}
	return &ca[i], &cb[i], nil
}

// Savings returns the percentage by which scheme a's metric undercuts
// scheme b's at sweep index i, using the communication-energy panel.
func (t *Table) Savings(a, b string, i int) (float64, error) {
	ra, rb, err := t.pair(a, b, i)
	if err != nil {
		return 0, err
	}
	base := rb.CommEnergy.Mean()
	if base == 0 {
		return 0, fmt.Errorf("harness: zero baseline energy")
	}
	return 100 * (1 - ra.CommEnergy.Mean()/base), nil
}

// PairedSavings returns the paired per-field communication-energy savings
// of scheme a over scheme b at sweep index i (mean and 95% CI of the
// per-field ratios). Because both schemes run on identical fields, this is
// the statistically tight version of Savings.
func (t *Table) PairedSavings(a, b string, i int) (mean, ci95 float64, err error) {
	ra, rb, err := t.pair(a, b, i)
	if err != nil {
		return 0, 0, err
	}
	return stats.PairedSavings(ra.CommEnergy, rb.CommEnergy)
}
