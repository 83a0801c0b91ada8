package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/chaos"
	"repro/internal/diffusion"
	"repro/internal/failure"
	"repro/internal/workload"
)

// quickCfg returns a small, fast configuration for runner tests.
func quickCfg(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Nodes = 80
	cfg.Duration = 30 * time.Second
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name string
		f    func(*Config)
	}{
		{"bad scheme", func(c *Config) { c.Scheme = 0 }},
		{"one node", func(c *Config) { c.Nodes = 1 }},
		{"zero field", func(c *Config) { c.FieldSide = 0 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"drain exceeds duration", func(c *Config) { c.DrainTail = c.Duration }},
		{"no sources", func(c *Config) { c.Workload.Sources = 0 }},
		{"bad failure fraction", func(c *Config) { c.Failures = &failure.Config{Fraction: 2, Wave: time.Second} }},
		{"bad diffusion", func(c *Config) { c.Diffusion.AggregationDelay = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultConfig()
			m.f(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Seed = 99
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	cfg.Seed = 100
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics == c.Metrics {
		t.Fatal("different seeds produced identical metrics")
	}
}

// TestRunDeterminismWithFailures repeats the determinism contract with the
// failure schedule enabled: wave draws ride the same kernel RNG, so two runs
// of one seed must agree byte for byte.
func TestRunDeterminismWithFailures(t *testing.T) {
	fc := failure.DefaultConfig()
	cfg := quickCfg(SchemeGreedy)
	cfg.Seed = 42
	cfg.Duration = 60 * time.Second
	cfg.Failures = &fc
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("same seed with failures diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if !reflect.DeepEqual(a.MAC, b.MAC) {
		t.Fatalf("same seed with failures diverged in MAC stats:\n%+v\n%+v", a.MAC, b.MAC)
	}
}

// TestRunDeterminismWithChaos extends the contract to the chaos engine's own
// randomness (link-loss coin flips, crash scheduling): identical seeds must
// yield identical metrics and identical fault injection.
func TestRunDeterminismWithChaos(t *testing.T) {
	cfg := quickCfg(SchemeOpportunistic)
	cfg.Seed = 43
	cfg.Duration = 60 * time.Second
	cfg.Chaos = &chaos.Config{
		Loss:            chaos.LossConfig{Drop: 0.1},
		Amnesia:         chaos.AmnesiaConfig{MeanInterval: 10 * time.Second, Downtime: 2 * time.Second},
		CheckInvariants: true,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("same seed with chaos diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if a.Chaos.Crashes != b.Chaos.Crashes || a.Chaos.LinkLoss != b.Chaos.LinkLoss {
		t.Fatalf("fault injection diverged: %d/%d crashes, %d/%d losses",
			a.Chaos.Crashes, b.Chaos.Crashes, a.Chaos.LinkLoss, b.Chaos.LinkLoss)
	}
}

func TestRunWithFailures(t *testing.T) {
	fc := failure.DefaultConfig()
	for _, scheme := range []Scheme{SchemeGreedy, SchemeOpportunistic} {
		cfg := quickCfg(scheme)
		cfg.Nodes = 150
		cfg.Duration = 60 * time.Second
		cfg.Failures = &fc
		out, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := out.Metrics
		if m.DeliveredEvents == 0 {
			t.Fatalf("%v: nothing delivered under failures", scheme)
		}
		if m.DeliveryRatio > 1 {
			t.Fatalf("%v: delivery ratio %v > 1", scheme, m.DeliveryRatio)
		}
		// 20% of relays down at all times must hurt, but the protocol
		// should still deliver a decent majority.
		if m.DeliveryRatio < 0.3 {
			t.Fatalf("%v: ratio %.3f suspiciously low even for 20%% failures", scheme, m.DeliveryRatio)
		}
	}
}

func TestRunMultiSink(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Nodes = 150
	cfg.Workload.Sinks = 3
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assignment.Sinks) != 3 {
		t.Fatalf("placed %d sinks, want 3", len(out.Assignment.Sinks))
	}
	if out.Metrics.DeliveryRatio <= 0 || out.Metrics.DeliveryRatio > 1 {
		t.Fatalf("delivery ratio %v out of range", out.Metrics.DeliveryRatio)
	}
}

func TestRunRandomPlacement(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Workload.Placement = workload.PlaceRandom
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics.DeliveredEvents == 0 {
		t.Fatal("nothing delivered with random placement")
	}
}

func TestRunLinearAggregation(t *testing.T) {
	// Linear aggregation sends bigger aggregates: bytes on air must exceed
	// the perfect-aggregation run's.
	perfect := quickCfg(SchemeGreedy)
	outP, err := Run(perfect)
	if err != nil {
		t.Fatal(err)
	}
	linear := quickCfg(SchemeGreedy)
	linear.Diffusion.Agg = agg.Linear{}
	outL, err := Run(linear)
	if err != nil {
		t.Fatal(err)
	}
	if outL.MAC.BytesOnAir <= outP.MAC.BytesOnAir {
		t.Fatalf("linear aggregation put %d bytes on air, perfect %d; expected more",
			outL.MAC.BytesOnAir, outP.MAC.BytesOnAir)
	}
}

func TestRunEndpointsProtectedFromFailure(t *testing.T) {
	// Under heavy failures the interest flood takes time to reach (and
	// activate) the sources, but once active a protected source never stops
	// generating: with 30% of relays down the tail of the run must show
	// sustained generation.
	fc := failure.Config{Fraction: 0.3, Wave: 5 * time.Second}
	cfg := quickCfg(SchemeOpportunistic)
	cfg.Failures = &fc
	cfg.Duration = 40 * time.Second
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At least half the ideal volume: activation may cost a few seconds,
	// but protected sources cannot be killed mid-run.
	ideal := int(float64(cfg.Workload.Sources) * (cfg.Duration - cfg.DrainTail).Seconds() / diffusion.DataPeriod.Seconds())
	if out.Metrics.GeneratedEvents < ideal/2 {
		t.Fatalf("generated %d events, want at least %d (protected sources must keep sensing)",
			out.Metrics.GeneratedEvents, ideal/2)
	}
}

func TestRunReportsMACAndSends(t *testing.T) {
	out, err := Run(quickCfg(SchemeGreedy))
	if err != nil {
		t.Fatal(err)
	}
	if out.MAC.DataTx == 0 {
		t.Fatal("MAC stats empty")
	}
	if out.Sent[3] == 0 { // msg.KindData
		t.Fatal("send counters empty")
	}
	if out.Density <= 0 {
		t.Fatal("density not reported")
	}
}

func TestGreedyBeatsOpportunisticAtHighDensity(t *testing.T) {
	// The paper's headline, as a regression guard: at ~350 nodes the greedy
	// scheme must dissipate clearly less communication energy. Averaged
	// over a few seeds to be robust to placement luck.
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	var g, o float64
	const seeds = 3
	for s := int64(0); s < seeds; s++ {
		for _, scheme := range []Scheme{SchemeGreedy, SchemeOpportunistic} {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.Nodes = 300
			cfg.Seed = s
			cfg.Duration = 120 * time.Second
			out, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if scheme == SchemeGreedy {
				g += out.Metrics.AvgCommEnergy
			} else {
				o += out.Metrics.AvgCommEnergy
			}
		}
	}
	if g >= o {
		t.Fatalf("greedy comm energy %.6g not below opportunistic %.6g at high density", g/seeds, o/seeds)
	}
	savings := 100 * (1 - g/o)
	t.Logf("high-density communication-energy savings: %.0f%%", savings)
	if savings < 15 {
		t.Errorf("savings %.0f%% too small; paper reports large high-density savings", savings)
	}
}
