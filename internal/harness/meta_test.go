package harness

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

func metaOptions() Options {
	return Options{
		Fields:    1,
		Duration:  20 * time.Second,
		Nodes:     []int{60},
		Telemetry: true,
	}
}

func TestSweepMetaAndManifest(t *testing.T) {
	tbl, err := Fig5(metaOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := tbl.RunMeta
	if m == nil {
		t.Fatal("no meta")
	}
	if m.Runs != 2 || m.Events == 0 || m.WallTime <= 0 {
		t.Fatalf("meta: %+v", m)
	}
	if m.EventsPerSec() <= 0 {
		t.Fatalf("events/sec = %v", m.EventsPerSec())
	}
	if len(m.Telemetry) == 0 {
		t.Fatal("telemetry enabled but no merged metrics")
	}
	// Both schemes' counters survive the merge, separable by label.
	for _, scheme := range tbl.Schemes {
		found := false
		for _, met := range obs.Find(m.Telemetry, "mac_data_tx") {
			if met.Labels == "scheme="+scheme {
				found = true
			}
		}
		if !found {
			t.Errorf("no mac_data_tx for scheme %s", scheme)
		}
	}

	man := tbl.Manifest()
	if man.Figure != "fig5" || man.Runs != 2 || man.TelemetryDigest == "" {
		t.Fatalf("manifest: %+v", man)
	}
	if man.GoVersion == "" || man.NumCPU == 0 || man.PeakMemBytes == 0 {
		t.Fatalf("environment fields unfilled: %+v", man)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "fig5.manifest.json")
	if err := man.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TelemetryDigest != man.TelemetryDigest || back.KernelEvents != man.KernelEvents {
		t.Fatalf("manifest round trip: %+v vs %+v", back, man)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestSweepWithoutTelemetryHasNoMetrics(t *testing.T) {
	o := metaOptions()
	o.Telemetry = false
	tbl, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RunMeta == nil || tbl.Runs != 2 {
		t.Fatalf("meta should be filled regardless: %+v", tbl.RunMeta)
	}
	if tbl.Telemetry != nil {
		t.Fatal("metrics collected with telemetry off")
	}
	if tbl.Manifest().TelemetryDigest != "" {
		t.Fatal("digest of no metrics")
	}
}

// TestTelemetryDigestReproduces checks that two identical sweeps leave the
// same telemetry digest in their manifests: the merged telemetry holds only
// what the seeds determine, never the host's wall clock.
func TestTelemetryDigestReproduces(t *testing.T) {
	var digests [2]string
	for i := range digests {
		tbl, err := Fig5(metaOptions())
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = tbl.Manifest().TelemetryDigest
	}
	if digests[0] == "" || digests[0] != digests[1] {
		t.Fatalf("telemetry digests of two identical sweeps: %q, %q", digests[0], digests[1])
	}
}
