package repro

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/trace"
)

// integrationCfg is a small-but-real configuration exercising every module.
func integrationCfg(scheme core.Scheme, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Nodes = 100
	cfg.Seed = seed
	cfg.Duration = 60 * time.Second
	return cfg
}

// TestPairedFieldsAcrossSchemes: the experiment design compares the two
// schemes on identical fields — same seed must give the same placement and
// the same workload assignment regardless of scheme.
func TestPairedFieldsAcrossSchemes(t *testing.T) {
	g, err := core.Run(integrationCfg(core.SchemeGreedy, 5))
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.Run(integrationCfg(core.SchemeOpportunistic, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Assignment.Sources) != len(o.Assignment.Sources) {
		t.Fatal("source counts differ across schemes")
	}
	for i := range g.Assignment.Sources {
		if g.Assignment.Sources[i] != o.Assignment.Sources[i] {
			t.Fatalf("source %d differs: %d vs %d (field not paired)",
				i, g.Assignment.Sources[i], o.Assignment.Sources[i])
		}
	}
	if g.Assignment.Sinks[0] != o.Assignment.Sinks[0] {
		t.Fatal("sink placement differs across schemes")
	}
	if g.Density != o.Density {
		t.Fatal("field density differs across schemes")
	}
}

// TestConservationLaws checks cross-module accounting invariants on both
// schemes.
func TestConservationLaws(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeGreedy, core.SchemeOpportunistic} {
		out, err := core.Run(integrationCfg(scheme, 9))
		if err != nil {
			t.Fatal(err)
		}
		m := out.Metrics
		if m.DeliveredEvents > m.GeneratedEvents {
			t.Errorf("%v: delivered %d > generated %d with one sink",
				scheme, m.DeliveredEvents, m.GeneratedEvents)
		}
		if m.DeliveryRatio < 0 || m.DeliveryRatio > 1 {
			t.Errorf("%v: ratio %v out of [0,1]", scheme, m.DeliveryRatio)
		}
		if m.CommEnergy > m.TotalEnergy {
			t.Errorf("%v: comm energy %v exceeds total %v", scheme, m.CommEnergy, m.TotalEnergy)
		}
		if m.AvgCommEnergy > m.AvgDissipatedEnergy {
			t.Errorf("%v: per-event comm energy exceeds total", scheme)
		}
		// The MAC never invents frames: every data frame on the air is a
		// protocol send or one of its retransmissions.
		var sends int
		for _, n := range out.Sent {
			sends += n
		}
		if out.MAC.DataTx > sends+out.MAC.Retries {
			t.Errorf("%v: MAC put %d data frames on air but the protocol sent %d (+%d retries)",
				scheme, out.MAC.DataTx, sends, out.MAC.Retries)
		}
		// Traffic concentration is well-formed.
		c := m.Concentration
		if c.MaxNodeJ < c.MeanNodeJ || (c.MeanNodeJ > 0 && c.PeakToMean < 1) {
			t.Errorf("%v: malformed concentration %+v", scheme, c)
		}
	}
}

// TestGreedyConcentratesTraffic: the shared tree works its trunk harder —
// §3's traffic-concentration trade-off must be visible in the metrics.
func TestGreedyConcentratesTraffic(t *testing.T) {
	var peak [2]float64
	for i, scheme := range []core.Scheme{core.SchemeGreedy, core.SchemeOpportunistic} {
		cfg := integrationCfg(scheme, 21)
		cfg.Nodes = 250
		out, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		peak[i] = out.Metrics.Concentration.PeakToMean
		if peak[i] <= 1 {
			t.Fatalf("%v: peak-to-mean %v <= 1", scheme, peak[i])
		}
	}
	t.Logf("peak-to-mean comm energy: greedy %.1f, opportunistic %.1f", peak[0], peak[1])
}

// TestTraceMatchesSendCounters: the tracer must see exactly the sends the
// runtime counts.
func TestTraceMatchesSendCounters(t *testing.T) {
	rec := trace.NewRecorder(1 << 20)
	rec.SetFilter(func(e trace.Event) bool { return e.Op == trace.OpSend })
	cfg := integrationCfg(core.SchemeGreedy, 3)
	cfg.Nodes = 60
	cfg.Duration = 30 * time.Second
	cfg.Tracer = rec
	out, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[msg.Kind]int)
	for _, e := range rec.Events() {
		counts[e.Kind]++
	}
	for k, want := range out.Sent {
		if counts[k] != want {
			t.Errorf("trace saw %d %v sends, runtime counted %d", counts[k], k, want)
		}
	}
}

// TestSchemesShareSubstrateTraffic: interest flooding is sink-driven and
// identical across schemes on the same field; only the scheme-specific
// message kinds may differ.
func TestSchemesShareSubstrateTraffic(t *testing.T) {
	g, err := core.Run(integrationCfg(core.SchemeGreedy, 5))
	if err != nil {
		t.Fatal(err)
	}
	o, err := core.Run(integrationCfg(core.SchemeOpportunistic, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Interest floods: one broadcast per node per round plus the sink's own;
	// both schemes must be within a whisker (losses differ run to run).
	gi, oi := g.Sent[msg.KindInterest], o.Sent[msg.KindInterest]
	if diff(gi, oi) > gi/5 {
		t.Errorf("interest traffic diverges: %d vs %d", gi, oi)
	}
	// Only the greedy scheme emits incremental cost messages.
	if o.Sent[msg.KindIncCost] != 0 {
		t.Errorf("opportunistic run sent %d inccost messages", o.Sent[msg.KindIncCost])
	}
	if g.Sent[msg.KindIncCost] == 0 {
		t.Error("greedy run sent no inccost messages")
	}
	// The headline mechanism: greedy needs fewer data transmissions.
	if g.Sent[msg.KindData] >= o.Sent[msg.KindData] {
		t.Errorf("greedy sent %d data messages, opportunistic %d — no sharing",
			g.Sent[msg.KindData], o.Sent[msg.KindData])
	}
}

func diff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// TestExamplesDeterministic builds every example, runs it twice and
// requires byte-identical standard output. Each example is a main package
// outside the test dependency graph, so only an explicit build catches rot;
// each is a fixed-seed scenario, so a difference between runs means output
// that depends on map order or unseeded state.
func TestExamplesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example twice")
	}
	dirs, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no examples found")
	}
	bin := t.TempDir()
	for _, dir := range dirs {
		name := filepath.Base(dir)
		exe := filepath.Join(bin, name)
		if out, err := exec.Command("go", "build", "-o", exe, "./"+dir).CombinedOutput(); err != nil {
			t.Errorf("%s does not build: %v\n%s", dir, err, out)
			continue
		}
		var runs [2][]byte
		for i := range runs {
			if runs[i], err = exec.Command(exe).Output(); err != nil {
				t.Errorf("%s run %d: %v", name, i+1, err)
			}
		}
		if !bytes.Equal(runs[0], runs[1]) {
			t.Errorf("%s printed different output on two runs:\n--- first\n%s\n--- second\n%s", name, runs[0], runs[1])
		}
	}
}
