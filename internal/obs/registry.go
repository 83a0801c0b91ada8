// Package obs is the telemetry subsystem: a lightweight metrics registry
// (labeled counters, gauges, fixed-bucket histograms), deterministic
// snapshots with a content digest, and run provenance manifests.
//
// The design goal is zero cost when disabled: instrument handles are
// pointers whose methods are nil-receiver no-ops, so instrumented code calls
// them unconditionally and a run without telemetry pays only a nil check.
// Instrument handles are resolved once, never per event: Counter, Gauge and
// Histogram template labels, look up a map and take the mutex, so hot paths
// hold the handle they got (binding it lazily on first use when an entry
// must appear only once it is non-zero) and then pay only the increment.
// Handle mutation is single-threaded by design — each simulation run owns
// its registry — but registry-level operations (handle creation, Snapshot,
// Absorb) take an internal mutex, so concurrent sweeps may merge per-run
// snapshots into one shared aggregate registry from many goroutines.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Label is one key=value dimension attached to a metric.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing integer metric. A nil Counter is a
// valid no-op handle.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n (n must be non-negative; negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v += n
	}
}

// Value returns the current count (0 for a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value that also tracks its maximum. A nil Gauge
// is a valid no-op handle.
type Gauge struct {
	v, max float64
	set    bool
}

// Set records the current value and updates the maximum.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
}

// Value returns the last value set.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the largest value ever set.
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram counts observations into fixed buckets. Bounds are upper bucket
// edges in ascending order; an implicit +Inf bucket catches the rest. A nil
// Histogram is a valid no-op handle.
type Histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last is the +Inf bucket
	sum    float64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the average observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// MetricKind distinguishes snapshot entries.
type MetricKind string

// Metric kinds.
const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// Bucket is one histogram bucket in a snapshot. The last bucket of a
// histogram has Bound = +Inf, serialized as the sentinel "inf".
type Bucket struct {
	Bound float64 `json:"bound"`
	Count int64   `json:"count"`
}

// Metric is one registry entry frozen into a snapshot.
type Metric struct {
	Name   string     `json:"name"`
	Labels string     `json:"labels,omitempty"` // canonical "k=v,k=v", sorted by key
	Kind   MetricKind `json:"kind"`
	// Value is the counter total or the gauge's last value; Max is the
	// gauge's high-water mark.
	Value float64 `json:"value"`
	Max   float64 `json:"max,omitempty"`
	// Count, Sum and Buckets describe a histogram.
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// key returns the canonical identity "name{labels}".
func (m Metric) key() string {
	if m.Labels == "" {
		return m.Name
	}
	return m.Name + "{" + m.Labels + "}"
}

// Registry holds one run's metrics. Handles returned by Counter, Gauge, and
// Histogram are mutated without locking — give each concurrent run its own
// registry. Registry-level operations (handle creation, Snapshot, Absorb)
// are mutex-guarded, so one aggregate registry can absorb snapshots from
// many worker goroutines concurrently.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	names    map[string]Metric // key -> name/labels/kind template
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		names:    make(map[string]Metric),
	}
}

// canonLabels renders labels in sorted canonical form.
func canonLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

func (r *Registry) template(name string, kind MetricKind, labels []Label) (string, Metric) {
	m := Metric{Name: name, Labels: canonLabels(labels), Kind: kind}
	return m.key(), m
}

// Counter returns the counter handle for name+labels, creating it on first
// use. A nil Registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterLocked(name, labels)
}

func (r *Registry) counterLocked(name string, labels []Label) *Counter {
	key, tmpl := r.template(name, KindCounter, labels)
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
		r.names[key] = tmpl
	}
	return c
}

// Gauge returns the gauge handle for name+labels, creating it on first use.
// A nil Registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gaugeLocked(name, labels)
}

func (r *Registry) gaugeLocked(name string, labels []Label) *Gauge {
	key, tmpl := r.template(name, KindGauge, labels)
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
		r.names[key] = tmpl
	}
	return g
}

// Histogram returns the histogram handle for name+labels with the given
// ascending bucket bounds, creating it on first use (later calls reuse the
// first bounds). A nil Registry returns a nil (no-op) handle.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histogramLocked(name, bounds, labels)
}

func (r *Registry) histogramLocked(name string, bounds []float64, labels []Label) *Histogram {
	key, tmpl := r.template(name, KindHistogram, labels)
	h, ok := r.hists[key]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		r.hists[key] = h
		r.names[key] = tmpl
	}
	return h
}

// Snapshot freezes the registry into a deterministic, sorted metric list.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
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
			m.Value = float64(r.counters[key].Value())
		case KindGauge:
			g := r.gauges[key]
			m.Value, m.Max = g.Value(), g.Max()
		case KindHistogram:
			h := r.hists[key]
			m.Count, m.Sum = h.n, h.sum
			m.Buckets = make([]Bucket, len(h.counts))
			for i, c := range h.counts {
				b := Bucket{Count: c}
				if i < len(h.bounds) {
					b.Bound = h.bounds[i]
				} else {
					b.Bound = infBound
				}
				m.Buckets[i] = b
			}
		}
		out = append(out, m)
	}
	return out
}

// infBound is the serialized stand-in for the +Inf bucket edge (JSON has no
// infinity literal).
const infBound = 1e308

// Absorb merges a snapshot into the registry: counters add, gauges keep the
// component-wise maximum (their last value becomes the max), histograms with
// matching bounds add bucket-wise. Kind or bound mismatches are reported and
// nothing else is merged for that metric. The registry mutex is held for the
// whole merge, so concurrent Absorb calls are safe.
func (r *Registry) Absorb(snap []Metric) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range snap {
		key := m.key()
		if have, ok := r.names[key]; ok && have.Kind != m.Kind {
			return fmt.Errorf("obs: absorb %s: kind %s vs %s", key, m.Kind, have.Kind)
		}
		switch m.Kind {
		case KindCounter:
			r.counterLocked(m.Name, parseLabels(m.Labels)).Add(int64(m.Value))
		case KindGauge:
			g := r.gaugeLocked(m.Name, parseLabels(m.Labels))
			if v := m.Max; v > g.Max() || !g.set {
				g.Set(v)
			}
		case KindHistogram:
			bounds := make([]float64, 0, len(m.Buckets))
			for _, b := range m.Buckets {
				if b.Bound != infBound {
					bounds = append(bounds, b.Bound)
				}
			}
			h := r.histogramLocked(m.Name, bounds, parseLabels(m.Labels))
			if len(h.counts) != len(m.Buckets) {
				return fmt.Errorf("obs: absorb %s: %d buckets vs %d", key, len(m.Buckets), len(h.counts))
			}
			for i, b := range m.Buckets {
				if i < len(h.bounds) && h.bounds[i] != b.Bound {
					return fmt.Errorf("obs: absorb %s: bound %g vs %g", key, b.Bound, h.bounds[i])
				}
				h.counts[i] += b.Count
			}
			h.sum += m.Sum
			h.n += m.Count
		default:
			return fmt.Errorf("obs: absorb %s: unknown kind %q", key, m.Kind)
		}
	}
	return nil
}

// parseLabels inverts canonLabels.
func parseLabels(s string) []Label {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]Label, 0, len(parts))
	for _, p := range parts {
		k, v, _ := strings.Cut(p, "=")
		out = append(out, Label{Key: k, Value: v})
	}
	return out
}

// Digest returns a short hex SHA-256 over the snapshot's canonical text
// form. Two runs with identical telemetry have identical digests, which is
// what makes perf and behavior regressions diffable from manifests alone.
func Digest(snap []Metric) string {
	if len(snap) == 0 {
		return ""
	}
	h := sha256.New()
	for _, m := range snap {
		fmt.Fprintf(h, "%s %s %g %g %d %g", m.key(), m.Kind, m.Value, m.Max, m.Count, m.Sum)
		for _, b := range m.Buckets {
			fmt.Fprintf(h, " %g:%d", b.Bound, b.Count)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Find returns the snapshot entries with the given metric name, across all
// label sets.
func Find(snap []Metric, name string) []Metric {
	var out []Metric
	for _, m := range snap {
		if m.Name == name {
			out = append(out, m)
		}
	}
	return out
}

// Value sums Metric.Value over every entry with the given name — the total
// of a counter across label sets (for gauges, prefer inspecting Find).
func Value(snap []Metric, name string) float64 {
	var total float64
	for _, m := range Find(snap, name) {
		total += m.Value
	}
	return total
}

// Config enables telemetry for one simulation run (core.Config.Telemetry).
// Each run gets a private registry, whose snapshot lands in the run output;
// merge snapshots across runs with Absorb.
type Config struct {
	// SnapshotEvery, when positive, dumps per-node protocol state
	// (gradients, on-tree flags, cache sizes) to the run's tracer at this
	// virtual-time interval; the tracer must implement trace.SnapshotSink.
	SnapshotEvery time.Duration
}

// Validate reports the first problem with the configuration, if any.
func (c Config) Validate() error {
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("obs: negative snapshot interval %v", c.SnapshotEvery)
	}
	return nil
}
