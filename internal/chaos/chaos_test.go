package chaos_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/msg"
)

// testConfig is a mid-size run that keeps the suite fast while exercising
// real multi-hop trees.
func testConfig(scheme core.Scheme, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Seed = seed
	cfg.Nodes = 100
	cfg.Duration = 60 * time.Second
	return cfg
}

// TestWavesEquivalence is the layer's core contract: a chaos config that
// arms no fault class, run beside the §5.3 failure waves, must reproduce
// the plain failure-path run bit for bit — same seed, same metrics, MAC
// counters and sends — even with the invariant checker watching.
func TestWavesEquivalence(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeGreedy, core.SchemeOpportunistic} {
		plain := testConfig(scheme, 7)
		fc := failure.DefaultConfig()
		plain.Failures = &fc
		a, err := core.Run(plain)
		if err != nil {
			t.Fatalf("%v plain: %v", scheme, err)
		}
		for _, cc := range []chaos.Config{{}, {CheckInvariants: true}} {
			viaChaos := plain
			viaChaos.Chaos = &cc
			b, err := core.Run(viaChaos)
			if err != nil {
				t.Fatalf("%v chaos %+v: %v", scheme, cc, err)
			}
			if b.Chaos == nil {
				t.Fatalf("%v: no chaos report", scheme)
			}
			if n := b.Chaos.ViolationCount; n != 0 {
				t.Errorf("%v: %d invariant violations: %v", scheme, n, b.Chaos.Violations)
			}
			// The chaos run additionally carries recovery metrics; everything
			// else must match exactly.
			bm := b.Metrics
			bm.Recovery = nil
			if !reflect.DeepEqual(a.Metrics, bm) {
				t.Errorf("%v chaos %+v: metrics diverge:\nplain: %+v\nchaos: %+v", scheme, cc, a.Metrics, bm)
			}
			if !reflect.DeepEqual(a.MAC, b.MAC) {
				t.Errorf("%v chaos %+v: MAC stats diverge:\nplain: %+v\nchaos: %+v", scheme, cc, a.MAC, b.MAC)
			}
			if !reflect.DeepEqual(a.Sent, b.Sent) {
				t.Errorf("%v chaos %+v: sends diverge:\nplain: %v\nchaos: %v", scheme, cc, a.Sent, b.Sent)
			}
		}
	}
}

// TestWaveFaultsCounted checks that a chaos config beside Failures times
// every failure wave that failed a node as a fault event: the waves start
// at 0 s and every Wave after, and each fails a fifth of the nodes, so the
// recovery report counts every wave that starts inside the measurement
// window.
func TestWaveFaultsCounted(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeGreedy, core.SchemeFlooding} {
		cfg := testConfig(scheme, 7)
		cfg.Duration = 100 * time.Second
		fc := failure.DefaultConfig()
		cfg.Failures = &fc
		cfg.Chaos = &chaos.Config{}
		out, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		window := cfg.Duration - cfg.DrainTail
		want := int((window + fc.Wave - 1) / fc.Wave) // waves at 0, 30, 60, 90 s
		if rec := out.Chaos.Recovery; rec == nil || rec.Faults != want {
			t.Errorf("%v: recovery report %+v, want %d wave faults", scheme, rec, want)
		}
	}
}

func TestPartitionCuts(t *testing.T) {
	p := chaos.Partition{
		Start: time.Second, End: 2 * time.Second,
		A: geom.Point{X: 100, Y: -10}, B: geom.Point{X: 100, Y: 210},
	}
	cases := []struct {
		a, b geom.Point
		want bool
	}{
		{geom.Point{X: 50, Y: 50}, geom.Point{X: 150, Y: 50}, true},
		{geom.Point{X: 50, Y: 50}, geom.Point{X: 60, Y: 80}, false},
		{geom.Point{X: 150, Y: 50}, geom.Point{X: 160, Y: 80}, false},
		// A point exactly on the line is cut from neither side.
		{geom.Point{X: 100, Y: 50}, geom.Point{X: 150, Y: 50}, false},
	}
	for i, c := range cases {
		if got := p.Cuts(c.a, c.b); got != c.want {
			t.Errorf("case %d: cuts(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestLossDropsTraffic(t *testing.T) {
	clean := testConfig(core.SchemeGreedy, 11)
	lossy := testConfig(core.SchemeGreedy, 11)
	lossy.Chaos = &chaos.Config{
		Loss:            chaos.LossConfig{Drop: 0.2},
		CheckInvariants: true,
	}
	a, err := core.Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if b.Chaos.LinkLoss == 0 {
		t.Error("20% i.i.d. loss suppressed no receptions")
	}
	if b.Chaos.ViolationCount != 0 {
		t.Errorf("violations under loss: %v", b.Chaos.Violations)
	}
	if b.Metrics.DeliveryRatio >= a.Metrics.DeliveryRatio {
		t.Errorf("loss did not hurt delivery: clean %v lossy %v",
			a.Metrics.DeliveryRatio, b.Metrics.DeliveryRatio)
	}
	if b.Metrics.DeliveryRatio == 0 {
		t.Error("20% loss should degrade, not silence, the network")
	}
}

func TestBurstyChannel(t *testing.T) {
	cfg := testConfig(core.SchemeGreedy, 13)
	cfg.Chaos = &chaos.Config{
		Loss: chaos.LossConfig{
			Burst: true,
		},
		CheckInvariants: true,
	}
	out, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Chaos.LinkLoss == 0 {
		t.Error("bursty channel suppressed no receptions")
	}
	if out.Chaos.ViolationCount != 0 {
		t.Errorf("violations under bursty loss: %v", out.Chaos.Violations)
	}
	if out.Metrics.DeliveryRatio == 0 {
		t.Error("bursty loss silenced the network entirely")
	}
}

func TestAmnesiaCrashes(t *testing.T) {
	cfg := testConfig(core.SchemeGreedy, 17)
	cfg.Chaos = &chaos.Config{
		Amnesia:         chaos.AmnesiaConfig{MeanInterval: 4 * time.Second, Downtime: 2 * time.Second},
		CheckInvariants: true,
	}
	out, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Chaos.Crashes == 0 {
		t.Fatal("no crashes injected in 60 s at a 4 s mean interval")
	}
	if out.Chaos.ViolationCount != 0 {
		t.Errorf("violations under amnesia: %v", out.Chaos.Violations)
	}
	if out.Metrics.DeliveryRatio == 0 {
		t.Error("network never recovered from amnesia crashes")
	}
	// Crashes landing in the drain tail fall outside the measurement
	// window, so the recovery report may see slightly fewer faults.
	if f := out.Chaos.Recovery.Faults; f == 0 || f > out.Chaos.Crashes {
		t.Errorf("recovery saw %d faults for %d injected crashes",
			f, out.Chaos.Crashes)
	}
}

func TestPartitionDipsDelivery(t *testing.T) {
	cfg := testConfig(core.SchemeGreedy, 19)
	cfg.Chaos = &chaos.Config{
		Partitions: []chaos.Partition{{
			Start: 25 * time.Second, End: 40 * time.Second,
			// A diagonal cut separating the corner workload region from the
			// opposite corner.
			A: geom.Point{X: -10, Y: 210}, B: geom.Point{X: 210, Y: -10},
		}},
		CheckInvariants: true,
	}
	out, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Chaos.LinkLoss == 0 {
		t.Error("partition cut no links")
	}
	if out.Chaos.ViolationCount != 0 {
		t.Errorf("violations under partition: %v", out.Chaos.Violations)
	}
	if out.Chaos.Recovery.Faults == 0 {
		t.Error("partition onset not recorded as a fault event")
	}
}

// TestCombinedGridClean runs the full fault mix over both schemes and
// requires a clean invariant report everywhere — the in-tree version of the
// experiment grid's acceptance criterion.
func TestCombinedGridClean(t *testing.T) {
	fc := failure.DefaultConfig()
	for _, scheme := range []core.Scheme{core.SchemeGreedy, core.SchemeOpportunistic} {
		cfg := testConfig(scheme, 23)
		cfg.Failures = &fc
		cfg.Chaos = &chaos.Config{
			Loss:            chaos.LossConfig{Drop: 0.05, AsymmetryFraction: 0.2, AsymmetryDrop: 0.3},
			Amnesia:         chaos.AmnesiaConfig{MeanInterval: 10 * time.Second, Downtime: 2 * time.Second},
			CheckInvariants: true,
		}
		out, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if out.Chaos.ViolationCount != 0 {
			t.Errorf("%v: violations under combined faults: %v", scheme, out.Chaos.Violations)
		}
		if out.Metrics.DeliveryRatio == 0 {
			t.Errorf("%v: combined faults silenced the network", scheme)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []chaos.Config{
		{Loss: chaos.LossConfig{Drop: 1.5}},
		{Loss: chaos.LossConfig{AsymmetryFraction: -0.1}},
		{Amnesia: chaos.AmnesiaConfig{MeanInterval: time.Second}}, // no downtime
		{Partitions: []chaos.Partition{{Start: 2 * time.Second, End: time.Second}}},
		{Partitions: []chaos.Partition{{End: time.Second, A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 1, Y: 1}}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
	if err := (chaos.Config{CheckInvariants: true}).Validate(); err != nil {
		t.Errorf("checker-only config invalid: %v", err)
	}
}

// TestRepairUnderChaos drives the self-healing layer through crash and
// combined fault loads: the repair machinery must actually fire, the
// invariant checker must stay clean (the repair-grace rule doing its job),
// and the run must stay byte-deterministic.
func TestRepairUnderChaos(t *testing.T) {
	for _, tc := range []struct {
		name string
		cc   chaos.Config
	}{
		{"amnesia", chaos.Config{
			Amnesia:         chaos.AmnesiaConfig{MeanInterval: 10 * time.Second, Downtime: 2 * time.Second},
			CheckInvariants: true,
		}},
		{"combined", chaos.Config{
			Loss:            chaos.LossConfig{Drop: 0.05, AsymmetryFraction: 0.2, AsymmetryDrop: 0.3},
			Amnesia:         chaos.AmnesiaConfig{MeanInterval: 15 * time.Second, Downtime: 2 * time.Second},
			CheckInvariants: true,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(core.SchemeGreedy, 11)
			cc := tc.cc
			cfg.Chaos = &cc
			cfg.Diffusion.Repair = diffusion.DefaultRepairParams()

			out, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.Chaos.ViolationCount != 0 {
				t.Errorf("violations with repair on: %v", out.Chaos.Violations)
			}
			rs := out.Repair
			if rs == nil {
				t.Fatal("no repair stats with repair enabled")
			}
			if rs.WatchdogFires+rs.CtrlRetries+rs.DataRebuffers == 0 {
				t.Errorf("repair layer never fired: %+v", *rs)
			}
			if out.Metrics.DeliveryRatio == 0 {
				t.Error("repair run silenced the network")
			}

			// Same config, same seed: bit-identical outcome.
			cfg2 := testConfig(core.SchemeGreedy, 11)
			cc2 := tc.cc
			cfg2.Chaos = &cc2
			cfg2.Diffusion.Repair = diffusion.DefaultRepairParams()
			out2, err := core.Run(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out.Metrics, out2.Metrics) {
				t.Errorf("metrics diverge across identical repair runs:\n%+v\n%+v",
					out.Metrics, out2.Metrics)
			}
			if !reflect.DeepEqual(out.MAC, out2.MAC) {
				t.Error("MAC stats diverge across identical repair runs")
			}
			if !reflect.DeepEqual(*rs, *out2.Repair) {
				t.Errorf("repair stats diverge: %+v vs %+v", *rs, *out2.Repair)
			}
		})
	}
}

// TestRepairOffIsInert pins the opt-in contract: with the zero-valued
// RepairParams the run is bit-identical to one that predates the repair
// layer — no hook, no timers, no randomness consumed.
func TestRepairOffIsInert(t *testing.T) {
	cfg := testConfig(core.SchemeGreedy, 13)
	fc := failure.DefaultConfig()
	cfg.Failures = &fc
	cfg.Chaos = &chaos.Config{CheckInvariants: true}
	out, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Repair != nil {
		t.Fatalf("repair stats reported with repair off: %+v", *out.Repair)
	}
	if n := out.Sent[msg.KindRepairProbe]; n != 0 {
		t.Fatalf("%d repair probes sent with repair off", n)
	}
}
