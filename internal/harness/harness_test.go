package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func tinyOptions() Options {
	return Options{
		Fields:   2,
		Duration: 30 * time.Second,
		Nodes:    []int{60, 140},
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultOptions().Fields != 10 {
		t.Fatal("paper averages over ten fields")
	}
	if len(DefaultOptions().Nodes) != 7 || DefaultOptions().Nodes[0] != 50 || DefaultOptions().Nodes[6] != 350 {
		t.Fatalf("paper sweeps 50..350 step 50: %v", DefaultOptions().Nodes)
	}
	bad := []Options{
		{Fields: 0, Duration: time.Second, Nodes: []int{50}},
		{Fields: 1, Duration: 0, Nodes: []int{50}},
		{Fields: 1, Duration: time.Second},
		{Fields: 1, Duration: time.Second, Nodes: []int{50}, Workers: -1},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFig5ShapeAndRender(t *testing.T) {
	tbl, err := Fig5(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Schemes) != 2 || tbl.Schemes[0] != "greedy" || tbl.Schemes[1] != "opportunistic" {
		t.Fatalf("schemes = %v", tbl.Schemes)
	}
	if len(tbl.Xs) != 2 {
		t.Fatalf("xs = %v", tbl.Xs)
	}
	for _, s := range tbl.Schemes {
		for i, c := range tbl.Cells[s] {
			if len(c.Energy) != 2 {
				t.Fatalf("%s x=%d has %d samples, want 2", s, tbl.Xs[i], len(c.Energy))
			}
			if c.Energy.Mean() <= 0 || c.Ratio.Mean() <= 0 {
				t.Fatalf("%s x=%d has empty metrics", s, tbl.Xs[i])
			}
		}
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig5", "average dissipated energy", "delivery ratio", "greedy", "opportunistic"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tbl.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+2*2 {
		t.Fatalf("CSV has %d lines, want header + 4 rows", len(lines))
	}

	if _, err := tbl.Savings("greedy", "opportunistic", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Savings("nope", "opportunistic", 0); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := tbl.Savings("greedy", "opportunistic", 9); err == nil {
		t.Fatal("bad index accepted")
	}
}

func TestSweepPairsSeedsAcrossSchemes(t *testing.T) {
	// The two schemes must run on identical fields per (x, field) pair.
	if seedFor(0, 150, 3) != seedFor(0, 150, 3) {
		t.Fatal("seedFor not deterministic")
	}
	if seedFor(0, 150, 3) == seedFor(0, 200, 3) {
		t.Fatal("different x must use different fields")
	}
	if seedFor(0, 150, 3) == seedFor(0, 150, 4) {
		t.Fatal("different fields must use different seeds")
	}
}

func TestGitSpt(t *testing.T) {
	o := tinyOptions()
	o.Fields = 3
	tbl, err := GitSpt(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if len(r.Corner) == 0 || len(r.Random) == 0 {
			t.Fatalf("node count %d has empty samples", r.Nodes)
		}
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "corner") {
		t.Fatalf("render missing corner column:\n%s", buf.String())
	}
}

func TestAblationTables(t *testing.T) {
	o := Options{Fields: 1, Duration: 20 * time.Second, Nodes: []int{80}}
	tr, err := AblationTruncation(o)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Schemes[1] != "greedy-eventcover" {
		t.Fatalf("schemes = %v", tr.Schemes)
	}
	tp, err := AblationReinforceDelay(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Xs) != 5 {
		t.Fatalf("tp sweep = %v", tp.Xs)
	}
	ta, err := AblationAggregationDelay(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.Xs) != 4 {
		t.Fatalf("ta sweep = %v", ta.Xs)
	}
}

func TestCharts(t *testing.T) {
	tbl, err := Fig5(Options{Fields: 1, Duration: 20 * time.Second, Nodes: []int{60, 120}})
	if err != nil {
		t.Fatal(err)
	}
	charts := tbl.Charts()
	if len(charts) != 4 {
		t.Fatalf("got %d charts, want 4 panels", len(charts))
	}
	var buf bytes.Buffer
	if err := tbl.RenderCharts(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "delivery ratio") {
		t.Fatal("charts missing panel titles")
	}
}

func TestBaselines(t *testing.T) {
	o := Options{Fields: 1, Duration: 20 * time.Second, Nodes: []int{80}}
	tbl, err := Baselines(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Schemes) != 4 {
		t.Fatalf("schemes = %v", tbl.Schemes)
	}
	fl := tbl.Cells["flooding"][0].CommEnergy.Mean()
	gr := tbl.Cells["greedy"][0].CommEnergy.Mean()
	if fl <= gr {
		t.Fatalf("flooding (%.6g) should dwarf greedy (%.6g)", fl, gr)
	}
}

func TestPairedSavings(t *testing.T) {
	tbl, err := Fig5(Options{Fields: 3, Duration: 30 * time.Second, Nodes: []int{120}})
	if err != nil {
		t.Fatal(err)
	}
	mean, ci, err := tbl.PairedSavings("greedy", "opportunistic", 0)
	if err != nil {
		t.Fatal(err)
	}
	if mean < -1 || mean > 1 {
		t.Fatalf("paired savings %v out of range", mean)
	}
	if ci < 0 {
		t.Fatalf("negative CI %v", ci)
	}
	if _, _, err := tbl.PairedSavings("nope", "opportunistic", 0); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, _, err := tbl.PairedSavings("greedy", "opportunistic", 5); err == nil {
		t.Fatal("bad index accepted")
	}
}

func TestChaosGrid(t *testing.T) {
	o := Options{Fields: 1, Duration: 30 * time.Second, Nodes: []int{chaosNodes}}
	tbl, err := Chaos(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2*len(ChaosScenarios) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), 2*len(ChaosScenarios))
	}
	for _, r := range tbl.Rows {
		if len(r.Ratio) != 1 {
			t.Fatalf("%s/%s has %d samples", r.Scenario, r.Scheme, len(r.Ratio))
		}
		if r.Ratio.Mean() <= 0 {
			t.Fatalf("%s/%s delivered nothing", r.Scenario, r.Scheme)
		}
		switch r.Scenario {
		case "waves", "amnesia", "partition", "combined":
			if r.Faults == 0 {
				t.Errorf("%s/%s recorded no fault events", r.Scenario, r.Scheme)
			}
		case "baseline":
			if r.Faults != 0 || r.LinkLoss != 0 {
				t.Errorf("baseline/%s injected faults: %+v", r.Scheme, r)
			}
		}
	}
	if v := tbl.TotalViolations(); v != 0 {
		for _, r := range tbl.Rows {
			if r.Violations > 0 {
				t.Logf("%s/%s: %d violations", r.Scenario, r.Scheme, r.Violations)
			}
		}
		t.Errorf("grid acceptance: %d invariant violations", v)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "figchaos") {
		t.Fatal("render missing title")
	}
	var csv bytes.Buffer
	if err := tbl.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(tbl.Rows) {
		t.Fatalf("CSV has %d lines, want header + %d rows", len(lines), len(tbl.Rows))
	}
}

func TestLifetimeStudy(t *testing.T) {
	o := Options{Fields: 1, Duration: 40 * time.Second, Nodes: []int{100}}
	tbl, err := LifetimeStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	r := tbl.Rows[0]
	if len(r.GreedyFirstDeath) != 1 || len(r.OppFirstDeath) != 1 {
		t.Fatalf("samples missing: %+v", r)
	}
	if r.BatteryJ.Mean() <= 0 {
		t.Fatal("battery not calibrated")
	}
	// First deaths are within (0, duration].
	for _, v := range []float64{r.GreedyFirstDeath[0], r.OppFirstDeath[0]} {
		if v <= 0 || v > tbl.Duration.Seconds() {
			t.Fatalf("first death %v out of range", v)
		}
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lifetime") {
		t.Fatal("render missing title")
	}
}
