package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkSingleRun350-8   	       8	 126021140 ns/op	17411332 B/op	  240200 allocs/op
BenchmarkKernelSchedule 	73979215	        17.44 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig5Density-4    	       2	 591846display ignored
BenchmarkMACBroadcast   	 1938591	       617.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	4.284s
`

func TestParse(t *testing.T) {
	// The malformed Fig5 line must error; drop it for the happy path.
	clean := strings.Replace(sampleOutput,
		"BenchmarkFig5Density-4    	       2	 591846display ignored\n", "", 1)
	b, err := Parse(strings.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}
	if b.GoOS != "linux" || b.GoArch != "amd64" || !strings.Contains(b.CPU, "Xeon") {
		t.Fatalf("header not captured: %+v", b)
	}
	if len(b.Results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(b.Results))
	}
	r, ok := b.Lookup("BenchmarkSingleRun350")
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if r.Iters != 8 || r.AllocsPerOp != 240200 || r.BytesPerOp != 17411332 {
		t.Fatalf("bad result: %+v", r)
	}
	if k, _ := b.Lookup("BenchmarkKernelSchedule"); k.NsPerOp != 17.44 {
		t.Fatalf("ns/op = %v, want 17.44", k.NsPerOp)
	}
}

func TestParseCustomMetrics(t *testing.T) {
	line := "BenchmarkFig5Density-8   2   500000000 ns/op   609736 events/s   0.93 greedy-delivery   120 B/op   3 allocs/op"
	b, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	r := b.Results[0]
	if r.Metrics["events/s"] != 609736 || r.Metrics["greedy-delivery"] != 0.93 {
		t.Fatalf("custom metrics not captured: %+v", r.Metrics)
	}
	if r.BytesPerOp != 120 || r.AllocsPerOp != 3 {
		t.Fatalf("standard columns lost among custom metrics: %+v", r)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := Parse(strings.NewReader(sampleOutput)); err == nil {
		t.Fatal("malformed benchmark line accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	b := &Baseline{
		SchemaVersion: SchemaVersion,
		GoOS:          "linux",
		Results: []Result{{
			Name: "BenchmarkX", Iters: 10, NsPerOp: 100,
			BytesPerOp: 48, AllocsPerOp: 1,
			Metrics: map[string]float64{"events/s": 5},
		}},
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Results[0].Name != "BenchmarkX" || got.Results[0].Metrics["events/s"] != 5 {
		t.Fatalf("round trip lost data: %+v", got.Results[0])
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	b := &Baseline{SchemaVersion: 99}
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("wrong schema version accepted")
	}
}

func TestCompareGatesAllocsNotTime(t *testing.T) {
	base := &Baseline{Results: []Result{
		{Name: "A", NsPerOp: 100, BytesPerOp: 400, AllocsPerOp: 9},
		{Name: "B", NsPerOp: 50, BytesPerOp: 0, AllocsPerOp: 0},
		{Name: "Gone", NsPerOp: 1, AllocsPerOp: 1},
	}}
	cur := &Baseline{Results: []Result{
		{Name: "A", NsPerOp: 500, BytesPerOp: 401, AllocsPerOp: 12}, // allocs +33%: regression
		{Name: "B", NsPerOp: 80, BytesPerOp: 0, AllocsPerOp: 0},     // ns +60% but time not gated
		{Name: "New", NsPerOp: 1, AllocsPerOp: 100},
	}}
	deltas := Compare(base, cur, CompareOptions{Threshold: 0.15})
	bad := Regressions(deltas)
	if len(bad) != 1 || bad[0].Bench != "A" || bad[0].Quantity != "allocs/op" {
		t.Fatalf("regressions = %+v, want only A allocs/op", bad)
	}
	for _, d := range deltas {
		if d.Quantity == "ns/op" {
			t.Fatal("ns/op gated without GateTime")
		}
		if d.Bench == "Gone" || d.Bench == "New" {
			t.Fatalf("unpaired benchmark %s compared", d.Bench)
		}
	}

	timed := Regressions(Compare(base, cur, CompareOptions{Threshold: 0.15, GateTime: true}))
	names := map[string]bool{}
	for _, d := range timed {
		names[d.Bench+" "+d.Quantity] = true
	}
	if !names["A ns/op"] || !names["B ns/op"] {
		t.Fatalf("GateTime missed time regressions: %+v", timed)
	}
}

func TestCompareGateMetrics(t *testing.T) {
	base := &Baseline{Results: []Result{
		{Name: "A", Metrics: map[string]float64{"bytes/node": 12000, "events/s": 500000}},
		{Name: "B", Metrics: map[string]float64{"events/s": 400000}},
	}}
	cur := &Baseline{Results: []Result{
		{Name: "A", Metrics: map[string]float64{"bytes/node": 15000, "events/s": 100}}, // +25%: regression
		{Name: "B", Metrics: map[string]float64{"events/s": 100}},                      // bytes/node absent: skipped
	}}

	// Without GateMetrics the custom columns are ignored entirely.
	for _, d := range Compare(base, cur, CompareOptions{Threshold: 0.15}) {
		if d.Quantity == "bytes/node" || d.Quantity == "events/s" {
			t.Fatalf("custom metric %s gated without GateMetrics", d.Quantity)
		}
	}

	deltas := Compare(base, cur, CompareOptions{Threshold: 0.15, GateMetrics: []string{"bytes/node"}})
	bad := Regressions(deltas)
	if len(bad) != 1 || bad[0].Bench != "A" || bad[0].Quantity != "bytes/node" {
		t.Fatalf("regressions = %+v, want only A bytes/node", bad)
	}
	for _, d := range deltas {
		if d.Bench == "B" && d.Quantity == "bytes/node" {
			t.Fatal("metric absent from current compared anyway")
		}
		if d.Quantity == "events/s" {
			t.Fatal("unlisted metric gated")
		}
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := &Baseline{Results: []Result{{Name: "Z", AllocsPerOp: 0}}}
	ok := &Baseline{Results: []Result{{Name: "Z", AllocsPerOp: 1}}}
	if bad := Regressions(Compare(base, ok, CompareOptions{Threshold: 0.15})); len(bad) != 0 {
		t.Fatalf("one alloc over a zero baseline flagged: %+v", bad)
	}
	grew := &Baseline{Results: []Result{{Name: "Z", AllocsPerOp: 2}}}
	if bad := Regressions(Compare(base, grew, CompareOptions{Threshold: 0.15})); len(bad) == 0 {
		t.Fatal("growth past a zero baseline not flagged")
	}
}

func TestParseCollapsesRepeatsToMedian(t *testing.T) {
	// Three -count runs of one benchmark: each quantity takes its own
	// median, so the collapsed result mixes runs rather than picking one.
	out := `BenchmarkScaleSweep/nodes=5000-8   1   300 ns/op   48 B/op   3 allocs/op   9956 bytes/node   7 events/s
BenchmarkOther-8   5   7 ns/op   0 B/op   0 allocs/op
BenchmarkScaleSweep/nodes=5000-8   1   100 ns/op   64 B/op   2 allocs/op   8514 bytes/node
BenchmarkScaleSweep/nodes=5000-8   1   200 ns/op   40 B/op   4 allocs/op   9000 bytes/node   5 events/s
`
	b, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Results) != 2 {
		t.Fatalf("parsed %d results, want 2 after collapsing repeats", len(b.Results))
	}
	r, _ := b.Lookup("BenchmarkScaleSweep/nodes=5000")
	if r.Iters != 1 || r.NsPerOp != 200 || r.BytesPerOp != 48 || r.AllocsPerOp != 3 {
		t.Fatalf("standard quantities not medians: %+v", r)
	}
	// bytes/node is in all three runs; events/s only in two (mean of the
	// middle pair).
	if r.Metrics["bytes/node"] != 9000 || r.Metrics["events/s"] != 6 {
		t.Fatalf("custom metrics not medians: %+v", r.Metrics)
	}
	if o, _ := b.Lookup("BenchmarkOther"); o.Iters != 5 || o.NsPerOp != 7 {
		t.Fatalf("single run altered: %+v", o)
	}
}
