package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

// fakeChildEnv makes the test binary stand in for a child process that
// prints a canned report, so the parent's process handling can be tested.
const fakeChildEnv = "BENCHMARK_FAKE_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(fakeChildEnv) != "" {
		fmt.Println(`{"attempted":3,"failed":0,"metrics":[{"name":"wall_s","value":1,"unit":"s"}]}`)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadsSmoke runs every workload's code path in-process at its
// miniature size, untraced and traced, and checks that each metric named in
// BENCHMARK.json is emitted, with its unit, and that no cell failed.
func TestWorkloadsSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	sort.Strings(names)
	sort.Strings(defined)
	if fmt.Sprint(names) != fmt.Sprint(defined) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", names, defined)
	}

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep, _, err := runWorkload(w, w.mini, 0, 0.001, traced, nil)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Attempted == 0 || rep.Failed != 0 {
					t.Errorf("traced=%v: %d cells attempted, %d failed", traced, rep.Attempted, rep.Failed)
				}
				got := map[string]metric{}
				for _, m := range rep.Metrics {
					if !metricName.MatchString(m.Name) {
						t.Errorf("metric name %q", m.Name)
					}
					if _, dup := got[m.Name]; dup {
						t.Errorf("metric %s emitted twice", m.Name)
					}
					got[m.Name] = m
				}
				want := b.PerLayer
				if !traced {
					want = b.EndToEnd
				}
				listed := map[string]bool{}
				for _, m := range want {
					listed[m.Name] = true
					if g, ok := got[m.Name]; !ok {
						t.Errorf("traced=%v: metric %s not emitted", traced, m.Name)
					} else if g.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
					}
				}
				for name := range got {
					if !listed[name] {
						t.Errorf("traced=%v: metric %s is not in BENCHMARK.json", traced, name)
					}
				}
			}
		})
	}
}

// TestFailedCellsCounted checks that a digest outside the pinned set fails
// its cell.
func TestFailedCellsCounted(t *testing.T) {
	w, _ := workloadByName("fig5")
	rep, _, err := runWorkload(w, w.mini, 0, 0.001, false, []string{"not-a-digest"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted == 0 || rep.Failed != rep.Attempted {
		t.Errorf("%d of %d cells failed, want all", rep.Failed, rep.Attempted)
	}
}

// TestSetupCellsMirrorHarness checks that the set-up cells are the cells
// the harness runs: run for their full duration, they give the same
// digests.
func TestSetupCellsMirrorHarness(t *testing.T) {
	for _, w := range workloads {
		p := runPass(w, w.mini, 3, false, nil, 0)
		if p.err != nil {
			t.Fatal(p.err)
		}
		var outs []harness.LedgerOutput
		for _, cfg := range w.cells(w.mini, 3) {
			out, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, harness.LedgerOutput{Metrics: out.Metrics, Density: out.Density, Sent: out.Sent,
				Chaos: out.Chaos, Mobility: out.Mobility, Repair: out.Repair})
		}
		ran, _ := digests(p.outs)
		built, _ := digests(outs)
		if len(ran) != len(built) || unmatched(ran, built) != 0 {
			t.Errorf("%s: the harness ran cells %v, the set-up cells are %v", w.name, ran, built)
		}
	}
}

func TestUnmatchedIsMultiset(t *testing.T) {
	if n := unmatched([]string{"a", "a", "b"}, []string{"a", "b", "c"}); n != 1 {
		t.Errorf("unmatched = %d, want 1", n)
	}
}

// TestParentReadsChildReport runs the parent's child-process path against a
// stand-in child and checks the report it reads.
func TestParentReadsChildReport(t *testing.T) {
	t.Setenv(fakeChildEnv, "1")
	rep, err := runChildProcess(os.Args[0], "fig5", options{seed: 0, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 3 || len(rep.Metrics) != 1 || rep.Metrics[0].Name != "wall_s" {
		t.Errorf("report %+v: want 3 cells and wall_s", rep)
	}
}

// TestPeakRSSFollowsAllocation checks that the peak resident memory of a
// stretch of work sees memory touched in it, and forgets earlier peaks.
func TestPeakRSSFollowsAllocation(t *testing.T) {
	big := make([]byte, 64<<20)
	for i := range big {
		big[i] = 1
	}
	before, err := peakRSS()
	if err != nil {
		t.Fatal(err)
	}
	big = nil
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	after, err := peakRSS()
	if err != nil {
		t.Fatal(err)
	}
	if before-after < 32<<20 {
		t.Errorf("peak RSS %.0f MB with 64 MB touched, %.0f MB after freeing it and resetting",
			before/(1<<20), after/(1<<20))
	}
}

// TestSpeedometerScales checks that the raw time of the work, without the
// reference runs, is scaled by the reference's nominal over measured time.
func TestSpeedometerScales(t *testing.T) {
	s := startSpeedometer()
	s.tick(false) // too soon: no reference run
	for i := 0; i < 3; i++ {
		time.Sleep(100 * time.Millisecond) // stands in for work
		s.tick(true)
	}
	raw, scaled := s.stop()
	// The four reference runs inside the timed stretch would add 4 × ref.
	if len(s.refs) != 5 || raw < 300*time.Millisecond || raw > 300*time.Millisecond+2*median(s.refs) {
		t.Fatalf("raw %v over %d reference runs of %v", raw, len(s.refs), median(s.refs))
	}
	want := float64(raw) * float64(refNominal) / float64(median(s.refs))
	if r := float64(scaled) / want; r < 0.5 || r > 2 {
		t.Errorf("scaled %v, raw %v, want about %v", scaled, raw, time.Duration(want))
	}
}

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"--workload", "fig10", "--seed", "7", "--seconds", "20", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "fig10" || o.seed != 7 || o.seconds != 20 || o.trace != 1 {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--out", "dir"},
		{"--child", "--workload", "all"},
		{"extra"},
	} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("parseArgs(%q) accepted", bad)
		}
	}
}
