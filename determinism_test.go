package repro

// Determinism goldens: the simulator's contract is that a (seed,
// configuration) pair fully determines a run. The files under testdata/
// were generated before the zero-alloc kernel/MAC rewrite, so these tests
// double as the regression proof that pooling, copy-on-write messages, and
// queue compaction changed only performance, never protocol outcomes.
//
// Regenerate (only when an intentional behavior change is made) with:
//
//	go test -run Golden -update .

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite determinism golden files")

func fig5QuickCSV(t *testing.T) []byte {
	t.Helper()
	opts := harness.QuickOptions()
	opts.Fields = 1
	opts.Duration = 20 * time.Second
	tbl, err := harness.Fig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from golden %s:\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestFig5QuickGoldenCSV asserts the quick-preset Figure 5 CSV is
// byte-identical to the pre-rewrite capture at the same seed.
func TestFig5QuickGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-preset sweep; skipped with -short")
	}
	compareGolden(t, filepath.Join("testdata", "fig5_quick.golden.csv"), fig5QuickCSV(t))
}

// TestFig5QuickRepeatable asserts two sweeps at the same seed are
// byte-identical — determinism within a single binary, independent of the
// committed golden.
func TestFig5QuickRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick-preset sweep twice; skipped with -short")
	}
	a, b := fig5QuickCSV(t), fig5QuickCSV(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("identical seeds produced different CSVs:\n%s\nvs\n%s", a, b)
	}
}

// mobilityQuickCSV runs the one-field quick mobility grid and returns its
// CSV — every dynamics scenario (walk, waypoint, churn) with repair off and
// on, so the golden pins mover advancement, incremental neighbor rebuilds,
// and churn scheduling alongside the protocol outcomes.
func mobilityQuickCSV(t *testing.T) []byte {
	t.Helper()
	opts := harness.QuickOptions()
	opts.Fields = 1
	opts.Duration = 20 * time.Second
	tbl, err := harness.Mobility(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMobilityQuickGoldenCSV asserts the quick mobility-grid CSV is
// byte-identical to the committed capture at the same seed — the dynamics
// counterpart of TestFig5QuickGoldenCSV.
func TestMobilityQuickGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick mobility grid; skipped with -short")
	}
	compareGolden(t, filepath.Join("testdata", "mobility_quick.golden.csv"), mobilityQuickCSV(t))
}

// figureOptions is the one-field preset the per-figure goldens below run
// at: every figure no other golden covers, in well under a second together.
func figureOptions() harness.Options {
	return harness.Options{Fields: 1, Duration: 20 * time.Second, Nodes: []int{100}}
}

// figureCSV renders one figure regeneration's CSV.
func figureCSV(t *testing.T, tbl interface{ CSV(io.Writer) error }, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dropColumns removes the named columns from a CSV whose header is its
// first line not starting with '#'; comment lines pass through.
func dropColumns(t *testing.T, csv []byte, names ...string) []byte {
	t.Helper()
	var keep []bool
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(csv), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			b.WriteString(line)
			continue
		}
		cols := strings.Split(strings.TrimSuffix(line, "\n"), ",")
		if keep == nil {
			keep = make([]bool, len(cols))
			for i, c := range cols {
				keep[i] = !slices.Contains(names, c)
			}
		}
		if len(cols) != len(keep) {
			t.Fatalf("ragged CSV line: %q", line)
		}
		var kept []string
		for i, c := range cols {
			if keep[i] {
				kept = append(kept, c)
			}
		}
		b.WriteString(strings.Join(kept, ",") + "\n")
	}
	return []byte(b.String())
}

// TestFigureGoldenCSVs pins the CSV of every figure that no other golden
// covers — the robustness and repair grids, the lifetime study, the
// abstract GIT/SPT comparison, a Table figure on a non-node axis (Fig10),
// and one 500-node scale rung — byte for byte. The scale golden drops the
// four columns that measure the host (wall time, throughput, heap).
func TestFigureGoldenCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("six one-field figure regenerations; skipped with -short")
	}
	o := figureOptions()
	scale := o
	scale.Nodes = []int{500}
	cases := []struct {
		golden string
		csv    func(*testing.T) []byte
	}{
		{"figchaos_quick", func(t *testing.T) []byte { tbl, err := harness.Chaos(o); return figureCSV(t, tbl, err) }},
		{"figrepair_quick", func(t *testing.T) []byte { tbl, err := harness.Repair(o); return figureCSV(t, tbl, err) }},
		{"figlifetime_quick", func(t *testing.T) []byte { tbl, err := harness.LifetimeStudy(o); return figureCSV(t, tbl, err) }},
		{"figgitspt_quick", func(t *testing.T) []byte { tbl, err := harness.GitSpt(o); return figureCSV(t, tbl, err) }},
		{"fig10_quick", func(t *testing.T) []byte { tbl, err := harness.Fig10(o); return figureCSV(t, tbl, err) }},
		{"figscale_quick", func(t *testing.T) []byte {
			tbl, err := harness.Scale(scale)
			return dropColumns(t, figureCSV(t, tbl, err),
				"wall_s", "events_per_sec", "peak_heap_bytes", "bytes_per_node")
		}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			compareGolden(t, filepath.Join("testdata", c.golden+".golden.csv"), c.csv(t))
		})
	}
}

// telemetryLines runs one instrumented quick simulation and renders every
// telemetry metric as a stable line. sim_queue_highwater is excluded: it
// reflects the event queue's memory footprint, which kernel changes move
// without changing the simulated run.
func telemetryLines(t *testing.T) []byte {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Nodes = 50
	cfg.Seed = 7
	cfg.Duration = 20 * time.Second
	cfg.Telemetry = &obs.Config{}
	out, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	writeMetricLines(&b, out.Telemetry)
	return []byte(b.String())
}

// writeMetricLines renders every metric of a snapshot as a stable line,
// histogram buckets indented below it, skipping sim_queue_highwater.
func writeMetricLines(b *strings.Builder, snap []obs.Metric) {
	for _, m := range snap {
		if m.Name == "sim_queue_highwater" {
			continue
		}
		fmt.Fprintf(b, "%s{%s} %s value=%g max=%g count=%d sum=%g\n",
			m.Name, m.Labels, m.Kind, m.Value, m.Max, m.Count, m.Sum)
		for _, bk := range m.Buckets {
			fmt.Fprintf(b, "  bucket %g: %d\n", bk.Bound, bk.Count)
		}
	}
}

// TestTelemetryCountersGolden asserts the full instrumented counter set of a
// seeded run matches the pre-rewrite capture.
func TestTelemetryCountersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("instrumented run; skipped with -short")
	}
	compareGolden(t, filepath.Join("testdata", "telemetry_quick.golden.txt"), telemetryLines(t))
}

// mergedTelemetryLines regenerates the baselines, chaos and repair grids
// at figureOptions with telemetry on and renders each figure's merged
// telemetry under a "# figure" heading. Together the grids cover all four
// schemes, the chaos and repair counters, and a merge across cells.
func mergedTelemetryLines(t *testing.T) []byte {
	t.Helper()
	o := figureOptions()
	o.Telemetry = true
	figures := []func() (*harness.RunMeta, error){
		func() (*harness.RunMeta, error) {
			tbl, err := harness.Baselines(o)
			if err != nil {
				return nil, err
			}
			return tbl.RunMeta, nil
		},
		func() (*harness.RunMeta, error) {
			tbl, err := harness.Chaos(o)
			if err != nil {
				return nil, err
			}
			return tbl.RunMeta, nil
		},
		func() (*harness.RunMeta, error) {
			tbl, err := harness.Repair(o)
			if err != nil {
				return nil, err
			}
			return tbl.RunMeta, nil
		},
	}
	var b strings.Builder
	for _, run := range figures {
		meta, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(meta.Telemetry) == 0 {
			t.Fatalf("%s: no merged telemetry", meta.Figure)
		}
		fmt.Fprintf(&b, "# %s\n", meta.Figure)
		writeMetricLines(&b, meta.Telemetry)
	}
	return []byte(b.String())
}

// TestMergedTelemetryGolden pins the merged sweep telemetry of every
// scheme — idealized and opportunistic included — through the harness's
// cross-cell merge, byte for byte.
func TestMergedTelemetryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three one-field figure regenerations; skipped with -short")
	}
	compareGolden(t, filepath.Join("testdata", "telemetry_merged_quick.golden.txt"), mergedTelemetryLines(t))
}

// ndjsonTrace runs one mid-size instrumented simulation with an NDJSON
// tracer attached and returns the raw trace bytes. The paper's middle
// density over a full minute drives every hot path the ordered-table layer
// rewrote: exploratory floods and gradient reinforcement, truncation
// (negative reinforcement), incremental-cost fan-out, and periodic
// snapshots walking the tables in iteration order.
func ndjsonTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	nd := trace.NewNDJSON(&buf)
	cfg := core.DefaultConfig()
	cfg.Seed = 11
	cfg.Duration = 60 * time.Second
	cfg.Tracer = nd
	cfg.Telemetry = &obs.Config{SnapshotEvery: 15 * time.Second}
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace")
	}
	return buf.Bytes()
}

// TestNDJSONTraceRepeatable asserts that two identically-seeded mid-size
// runs emit byte-identical NDJSON traces — the strictest determinism check
// we have, since the trace serializes every protocol send, receive, drop,
// and snapshot in order.
func TestNDJSONTraceRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("two mid-size instrumented runs; skipped with -short")
	}
	a, b := ndjsonTrace(t), ndjsonTrace(t)
	if !bytes.Equal(a, b) {
		al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
		for i := range al {
			if i >= len(bl) || al[i] != bl[i] {
				t.Fatalf("traces diverge at line %d:\n run A: %s\n run B: %s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("trace lengths differ: %d vs %d bytes", len(a), len(b))
	}
}

// mobileNDJSONTrace runs one instrumented simulation under random-waypoint
// mobility plus population churn and returns the raw NDJSON trace bytes.
// Movement epochs, incremental neighbor rebuilds, cold joins, and permanent
// departures all draw from the kernel RNG, so a byte-identical rerun proves
// the dynamics layer kept the (seed, config) determinism contract.
func mobileNDJSONTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	nd := trace.NewNDJSON(&buf)
	cfg := core.DefaultConfig()
	cfg.Seed = 13
	cfg.Duration = 40 * time.Second
	cfg.Mobility = topology.DefaultMobilityConfig(topology.MobilityWaypoint)
	cfg.Churn = failure.ChurnConfig{
		JoinFraction:  0.15,
		JoinWindow:    15 * time.Second,
		LeaveInterval: 10 * time.Second,
	}
	cfg.Tracer = nd
	cfg.Telemetry = &obs.Config{SnapshotEvery: 15 * time.Second}
	out, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace")
	}
	if out.Mobility == nil || out.Mobility.LinkChanges == 0 {
		t.Fatal("mobile run produced no adjacency changes; trace would not exercise the dynamics layer")
	}
	return buf.Bytes()
}

// TestMobileNDJSONTraceRepeatable asserts two identically-seeded mobile,
// churning runs emit byte-identical NDJSON traces — the dynamics
// counterpart of TestNDJSONTraceRepeatable.
func TestMobileNDJSONTraceRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("two instrumented mobile runs; skipped with -short")
	}
	a, b := mobileNDJSONTrace(t), mobileNDJSONTrace(t)
	if !bytes.Equal(a, b) {
		al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
		for i := range al {
			if i >= len(bl) || al[i] != bl[i] {
				t.Fatalf("mobile traces diverge at line %d:\n run A: %s\n run B: %s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("trace lengths differ: %d vs %d bytes", len(a), len(b))
	}
}
