package obs

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// refRegistry is the labeled-metrics registry snapshots were once merged
// with (Absorb, then Snapshot), kept as the reference Merge must match.
type refRegistry struct {
	counters map[string]*refCounter
	gauges   map[string]*refGauge
	hists    map[string]*refHistogram
	names    map[string]Metric // key -> name/labels/kind template
}

type refCounter struct{ v int64 }

// Add adds n; non-positive deltas are ignored.
func (c *refCounter) Add(n int64) {
	if n > 0 {
		c.v += n
	}
}

type refGauge struct {
	v, max float64
	set    bool
}

// Set records the current value and updates the maximum.
func (g *refGauge) Set(v float64) {
	g.v = v
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
}

type refHistogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last is the +Inf bucket
	sum    float64
	n      int64
}

// Observe records one value in the first bucket whose bound is >= v.
func (h *refHistogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
	h.n++
}

type refLabel struct{ Key, Value string }

func newRefRegistry() *refRegistry {
	return &refRegistry{
		counters: make(map[string]*refCounter),
		gauges:   make(map[string]*refGauge),
		hists:    make(map[string]*refHistogram),
		names:    make(map[string]Metric),
	}
}

// canonLabels renders labels sorted by key as "k=v,k=v".
func canonLabels(labels []refLabel) string {
	ls := append([]refLabel(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// parseLabels inverts canonLabels.
func parseLabels(s string) []refLabel {
	if s == "" {
		return nil
	}
	var out []refLabel
	for _, p := range strings.Split(s, ",") {
		k, v, _ := strings.Cut(p, "=")
		out = append(out, refLabel{k, v})
	}
	return out
}

func (r *refRegistry) template(name string, kind MetricKind, labels []refLabel) (string, Metric) {
	m := Metric{Name: name, Labels: canonLabels(labels), Kind: kind}
	return m.key(), m
}

func (r *refRegistry) Counter(name string, labels ...refLabel) *refCounter {
	key, tmpl := r.template(name, KindCounter, labels)
	c, ok := r.counters[key]
	if !ok {
		c = &refCounter{}
		r.counters[key] = c
		r.names[key] = tmpl
	}
	return c
}

func (r *refRegistry) Gauge(name string, labels ...refLabel) *refGauge {
	key, tmpl := r.template(name, KindGauge, labels)
	g, ok := r.gauges[key]
	if !ok {
		g = &refGauge{}
		r.gauges[key] = g
		r.names[key] = tmpl
	}
	return g
}

// Histogram returns the histogram for name+labels, created with bounds on
// first use (later calls reuse the first bounds).
func (r *refRegistry) Histogram(name string, bounds []float64, labels ...refLabel) *refHistogram {
	key, tmpl := r.template(name, KindHistogram, labels)
	h, ok := r.hists[key]
	if !ok {
		h = &refHistogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		r.hists[key] = h
		r.names[key] = tmpl
	}
	return h
}

// Snapshot freezes the registry into a metric list sorted by key.
func (r *refRegistry) Snapshot() []Metric {
	keys := make([]string, 0, len(r.names))
	for k := range r.names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Metric, 0, len(keys))
	for _, key := range keys {
		m := r.names[key]
		switch m.Kind {
		case KindCounter:
			m.Value = float64(r.counters[key].v)
		case KindGauge:
			g := r.gauges[key]
			m.Value, m.Max = g.v, g.max
		case KindHistogram:
			h := r.hists[key]
			m.Count, m.Sum = h.n, h.sum
			m.Buckets = make([]Bucket, len(h.counts))
			for i, c := range h.counts {
				b := Bucket{Count: c, Bound: infBound}
				if i < len(h.bounds) {
					b.Bound = h.bounds[i]
				}
				m.Buckets[i] = b
			}
		}
		out = append(out, m)
	}
	return out
}

// Absorb merges a snapshot: counters add, gauges keep the largest Max
// (their last value becomes it), histograms with matching bounds add
// bucket-wise; a kind, bucket-count or bound mismatch is an error.
func (r *refRegistry) Absorb(snap []Metric) error {
	for _, m := range snap {
		key := m.key()
		if have, ok := r.names[key]; ok && have.Kind != m.Kind {
			return fmt.Errorf("absorb %s: kind %s vs %s", key, m.Kind, have.Kind)
		}
		switch m.Kind {
		case KindCounter:
			r.Counter(m.Name, parseLabels(m.Labels)...).Add(int64(m.Value))
		case KindGauge:
			g := r.Gauge(m.Name, parseLabels(m.Labels)...)
			if v := m.Max; v > g.max || !g.set {
				g.Set(v)
			}
		case KindHistogram:
			var bounds []float64
			for _, b := range m.Buckets {
				if b.Bound != infBound {
					bounds = append(bounds, b.Bound)
				}
			}
			h := r.Histogram(m.Name, bounds, parseLabels(m.Labels)...)
			if len(h.counts) != len(m.Buckets) {
				return fmt.Errorf("absorb %s: %d buckets vs %d", key, len(m.Buckets), len(h.counts))
			}
			for i, b := range m.Buckets {
				if i < len(h.bounds) && h.bounds[i] != b.Bound {
					return fmt.Errorf("absorb %s: bound %g vs %g", key, b.Bound, h.bounds[i])
				}
				h.counts[i] += b.Count
			}
			h.sum += m.Sum
			h.n += m.Count
		default:
			return fmt.Errorf("absorb %s: unknown kind %q", key, m.Kind)
		}
	}
	return nil
}

// randomSnapshot builds one run's snapshot through the reference: a random
// subset of counters (zeros included), gauges set more than once so their
// last Value lies below their Max, and histograms over the fixed bounds,
// each under one of several label sets.
func randomSnapshot(rng *rand.Rand) []Metric {
	labelSets := [][]refLabel{
		nil,
		{{"scheme", "greedy"}},
		{{"scheme", "opportunistic"}},
		{{"scheme", "greedy"}, {"reason", "collision"}},
		{{"scheme", "greedy"}, {"kind", "data"}},
	}
	r := newRefRegistry()
	for _, name := range []string{"c0", "c1", "c1_x"} {
		for _, ls := range labelSets {
			if rng.Intn(3) == 0 {
				r.Counter(name, ls...).Add(int64(rng.Intn(4) * rng.Intn(1000)))
			}
		}
	}
	for _, ls := range labelSets {
		if rng.Intn(3) == 0 {
			g := r.Gauge("g0", ls...)
			high := float64(rng.Intn(2000) - 500)
			g.Set(high)
			g.Set(high - 1 - float64(rng.Intn(100)))
		}
		if rng.Intn(3) == 0 {
			h := r.Histogram("h0", sizeBounds[:], ls...)
			for n := rng.Intn(20); n > 0; n-- {
				h.Observe(float64(rng.Intn(40)))
			}
		}
	}
	return r.Snapshot()
}

// cloneSnapshot deep-copies a snapshot, buckets included.
func cloneSnapshot(snap []Metric) []Metric {
	out := append([]Metric(nil), snap...)
	for i := range out {
		out[i].Buckets = append([]Bucket(nil), out[i].Buckets...)
	}
	return out
}

// TestMergeMatchesAbsorb checks Merge against the reference registry's
// Absorb+Snapshot on seeded random snapshot sequences, after every merge,
// and checks that Merge leaves its input snapshot untouched.
func TestMergeMatchesAbsorb(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := newRefRegistry()
		var got []Metric
		for step := rng.Intn(6) + 1; step > 0; step-- {
			snap := randomSnapshot(rng)
			before := cloneSnapshot(snap)
			if err := ref.Absorb(snap); err != nil {
				t.Fatalf("seed %d: reference: %v", seed, err)
			}
			var err error
			if got, err = Merge(got, snap); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !reflect.DeepEqual(snap, before) {
				t.Fatalf("seed %d: Merge modified its input", seed)
			}
			want := ref.Snapshot()
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Merge differs from Absorb:\n got %+v\nwant %+v", seed, got, want)
			}
		}
	}
}

// TestMergeErrorsMatchAbsorb checks that Merge rejects exactly what the
// reference rejects: a kind clash, a bucket-count or bound mismatch, and an
// unknown kind.
func TestMergeErrorsMatchAbsorb(t *testing.T) {
	build := func(fill func(r *refRegistry)) []Metric {
		r := newRefRegistry()
		fill(r)
		return r.Snapshot()
	}
	counter := build(func(r *refRegistry) { r.Counter("x", refLabel{"s", "g"}).Add(3) })
	hist12 := build(func(r *refRegistry) { r.Histogram("h", []float64{1, 2}).Observe(1) })
	cases := []struct {
		name        string
		first, then []Metric
	}{
		{"counter then gauge", counter,
			build(func(r *refRegistry) { r.Gauge("x", refLabel{"s", "g"}).Set(1) })},
		{"counter then histogram", counter,
			build(func(r *refRegistry) { r.Histogram("x", []float64{1}, refLabel{"s", "g"}).Observe(1) })},
		{"bucket count", hist12,
			build(func(r *refRegistry) { r.Histogram("h", []float64{1, 2, 3}).Observe(1) })},
		{"bound", hist12,
			build(func(r *refRegistry) { r.Histogram("h", []float64{1, 3}).Observe(1) })},
		{"unknown kind", counter, []Metric{{Name: "u", Kind: "summary", Value: 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := newRefRegistry()
			if err := ref.Absorb(c.first); err != nil {
				t.Fatal(err)
			}
			merged, err := Merge(nil, c.first)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Absorb(c.then) == nil {
				t.Fatal("reference accepted the case")
			}
			if _, err := Merge(merged, c.then); err == nil {
				t.Fatal("Merge accepted what Absorb rejects")
			}
		})
	}
}

// TestCounterGaugeHistogram checks each kind end to end: a Histogram's
// bucket placement and rendering, and how counters, gauges and histograms
// merge across two runs.
func TestCounterGaugeHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.5, 1, 2, 3, 5, 32, 33, 100} {
		h.Observe(v)
	}
	m := h.Metric("sizes", "scheme=greedy")
	if m.Name != "sizes" || m.Labels != "scheme=greedy" || m.Kind != KindHistogram ||
		m.Count != 8 || h.Count() != 8 || m.Sum != 176.5 {
		t.Fatalf("histogram entry %+v", m)
	}
	// <=1 gets 0.5 and 1; <=2 gets 2; <=3 gets 3; <=6 gets 5; <=32 gets
	// 32; +Inf gets 33 and 100.
	wantBounds := []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 1e308}
	wantCounts := []int64{2, 1, 1, 0, 1, 0, 0, 0, 0, 1, 2}
	if len(m.Buckets) != len(wantBounds) {
		t.Fatalf("%d buckets, want %d", len(m.Buckets), len(wantBounds))
	}
	for i, b := range m.Buckets {
		if b.Bound != wantBounds[i] || b.Count != wantCounts[i] {
			t.Fatalf("bucket %d = %+v, want bound %g count %d", i, b, wantBounds[i], wantCounts[i])
		}
	}

	run := func(n int, gauge float64) []Metric {
		var h Histogram
		h.Observe(0.5)
		h.Observe(float64(n))
		snap, err := Merge(nil, []Metric{
			{Name: "q", Kind: KindGauge, Value: gauge, Max: gauge},
			{Name: "c", Labels: "s=g", Kind: KindCounter, Value: float64(n)},
			h.Metric("h", ""),
		})
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	agg, err := Merge(nil, run(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if agg, err = Merge(agg, run(4, 7)); err != nil {
		t.Fatal(err)
	}
	if agg[0].Name != "c" || agg[1].Name != "h" || agg[2].Name != "q" {
		t.Fatalf("merged snapshot not sorted by key: %+v", agg)
	}
	if got := Value(agg, "c"); got != 7 {
		t.Fatalf("merged counter = %g", got)
	}
	if q := Find(agg, "q")[0]; q.Value != 10 || q.Max != 10 {
		t.Fatalf("merged gauge value=%g max=%g, want 10 and 10", q.Value, q.Max)
	}
	if hm := Find(agg, "h")[0]; hm.Count != 4 || hm.Sum != 8 || hm.Buckets[0].Count != 2 {
		t.Fatalf("merged histogram n=%d sum=%g buckets=%v", hm.Count, hm.Sum, hm.Buckets)
	}
}

func TestSnapshotDeterministicAndDigest(t *testing.T) {
	build := func() []Metric {
		var h Histogram
		h.Observe(0.5)
		snap, err := Merge(nil, []Metric{
			{Name: "b", Labels: "k=2", Kind: KindCounter, Value: 2},
			{Name: "a", Kind: KindCounter, Value: 1},
			{Name: "g", Kind: KindGauge, Value: 1, Max: 1},
			h.Metric("h", ""),
		})
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	s1, s2 := build(), build()
	if len(s1) != 4 || s1[0].Name != "a" {
		t.Fatalf("snapshot not sorted: %+v", s1)
	}
	if Digest(s1) != Digest(s2) {
		t.Fatal("identical snapshots must digest identically")
	}
	if Digest([]Metric{{Name: "a", Kind: KindCounter, Value: 2}}) == Digest(s1) {
		t.Fatal("different content must digest differently")
	}
	if Digest(nil) != "" {
		t.Fatal("empty snapshot digest must be empty")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	snap := []Metric{{Name: "events", Kind: KindCounter, Value: 42}}
	m := &Manifest{
		SchemaVersion:   ManifestVersion,
		Figure:          "fig5",
		Schemes:         []string{"greedy", "opportunistic"},
		Xs:              []int{50, 150},
		Fields:          3,
		SimSeconds:      60,
		Runs:            18,
		WallSeconds:     1.5,
		KernelEvents:    123456,
		EventsPerSec:    82304,
		PeakMemBytes:    PeakMemoryBytes(),
		TelemetryDigest: Digest(snap),
		Metrics:         snap,
	}
	path := filepath.Join(t.TempDir(), "fig5.manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Figure != "fig5" || got.Runs != 18 || got.TelemetryDigest != m.TelemetryDigest {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if Value(got.Metrics, "events") != 42 {
		t.Fatalf("metrics lost: %+v", got.Metrics)
	}
	if got.PeakMemBytes == 0 {
		t.Fatal("peak memory not recorded")
	}
	if _, err := ReadManifest(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing manifest not reported")
	}
}
