package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/diffusion"
	"repro/internal/obs"
	"repro/internal/trace"
)

func TestIdealizedBaselines(t *testing.T) {
	results := map[Scheme]Output{}
	for _, scheme := range []Scheme{SchemeFlooding, SchemeOmniscient, SchemeGreedy} {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		cfg.Nodes = 120
		cfg.Seed = 4
		cfg.Duration = 40 * time.Second
		out, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		results[scheme] = out
		m := out.Metrics
		t.Logf("%-12s ratio=%.3f delay=%.3f comm=%.6f dataSent=%d",
			scheme, m.DeliveryRatio, m.AvgDelay, m.AvgCommEnergy, out.Sent[3])
		if m.DeliveredEvents == 0 {
			t.Fatalf("%v delivered nothing", scheme)
		}
	}
	// The classical ordering (the Mobicom'00 calibration this paper's
	// metrics come from): flooding burns by far the most communication
	// energy, and diffusion *with aggregation* beats even omniscient
	// multicast, because the multicast reference must carry every event
	// separately while the aggregation tree carries one aggregate.
	fl := results[SchemeFlooding].Metrics.AvgCommEnergy
	om := results[SchemeOmniscient].Metrics.AvgCommEnergy
	gr := results[SchemeGreedy].Metrics.AvgCommEnergy
	if !(fl > om && fl > gr) {
		t.Errorf("flooding must be the most expensive: flooding %.6g, greedy %.6g, omniscient %.6g", fl, gr, om)
	}
	if gr >= om {
		t.Errorf("greedy aggregation (%.6g) should beat per-event omniscient multicast (%.6g)", gr, om)
	}
}

// TestIdealizedValidate: the idealized references install neither the
// tracer nor the repair layer, so Validate refuses both on them with an
// error naming the scheme and the feature. The features a Baselines sweep
// arms on its idealized cells (telemetry, a flight recorder, the chaos
// checker) still validate.
func TestIdealizedValidate(t *testing.T) {
	cases := []struct {
		name    string
		f       func(*Config)
		feature string // "" = must validate
	}{
		{"tracer", func(c *Config) { c.Tracer = trace.NewRecorder(16) }, "tracing"},
		{"repair", func(c *Config) { c.Diffusion.Repair = diffusion.DefaultRepairParams() }, "repair"},
		{"baselines cell", func(c *Config) {
			c.Telemetry = &obs.Config{}
			c.FlightPath = "baselines.flight.ndjson"
			c.Chaos = &chaos.Config{CheckInvariants: true}
		}, ""},
	}
	for _, scheme := range []Scheme{SchemeFlooding, SchemeOmniscient} {
		for _, tc := range cases {
			t.Run(scheme.String()+"/"+tc.name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				tc.f(&cfg)
				err := cfg.Validate()
				switch {
				case tc.feature == "":
					if err != nil {
						t.Fatalf("rejected: %v", err)
					}
				case err == nil:
					t.Fatal("accepted")
				case !strings.Contains(err.Error(), scheme.String()) || !strings.Contains(err.Error(), tc.feature):
					t.Fatalf("error %q does not name %s and %s", err, scheme, tc.feature)
				}
			})
		}
	}
	// The diffusion schemes keep both features.
	cfg := DefaultConfig()
	cfg.Tracer = trace.NewRecorder(16)
	cfg.Diffusion.Repair = diffusion.DefaultRepairParams()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("greedy with tracer and repair rejected: %v", err)
	}
}
