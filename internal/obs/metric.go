// Package obs is the telemetry subsystem's vocabulary: the snapshot entry
// (Metric) a run renders from the counters its layers keep, a fixed-bucket
// Histogram value, Merge for folding per-run snapshots into a sweep's, a
// content digest, and run provenance manifests.
//
// obs holds no live state. Each layer counts into plain fields of its own
// (mac.Stats, the diffusion runtime's counters, the kernel's event count),
// always, drawing no randomness; a run with telemetry on renders them once,
// when it ends, into a snapshot sorted by key.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"
)

// MetricKind distinguishes snapshot entries.
type MetricKind string

// Metric kinds.
const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// Bucket is one histogram bucket in a snapshot. The last bucket of a
// histogram has Bound = +Inf, serialized as the sentinel 1e308.
type Bucket struct {
	Bound float64 `json:"bound"`
	Count int64   `json:"count"`
}

// Metric is one snapshot entry.
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

// key returns the canonical identity "name{labels}" snapshots sort by.
func (m Metric) key() string {
	if m.Labels == "" {
		return m.Name
	}
	return m.Name + "{" + m.Labels + "}"
}

// sizeBounds are the upper bucket edges of every Histogram, sized for
// small integer distributions (set-cover input sizes, cascade lengths).
var sizeBounds = [...]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// infBound is the serialized stand-in for the +Inf bucket edge (JSON has no
// infinity literal).
const infBound = 1e308

// Histogram counts observations into the buckets 1, 2, 3, 4, 6, 8, 12, 16,
// 24, 32 and +Inf: a value lands in the first bucket whose bound is at
// least the value. The zero value is empty and ready; observing allocates
// nothing.
type Histogram struct {
	counts [len(sizeBounds) + 1]int64
	n      int64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(sizeBounds[:], v)]++
	h.n++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Metric renders the histogram as a snapshot entry.
func (h *Histogram) Metric(name, labels string) Metric {
	m := Metric{Name: name, Labels: labels, Kind: KindHistogram, Count: h.n, Sum: h.sum,
		Buckets: make([]Bucket, len(h.counts))}
	for i, c := range h.counts {
		m.Buckets[i] = Bucket{Bound: infBound, Count: c}
		if i < len(sizeBounds) {
			m.Buckets[i].Bound = sizeBounds[i]
		}
	}
	return m
}

// Merge folds snap into the merged snapshot into and returns the result,
// sorted by key: counters add, a gauge keeps the largest Max as both its
// Value and its Max, and histograms add bucket by bucket, their Sums in
// call order. An entry whose kind, bucket count or bucket bounds differ
// from into's entry of the same key is an error, and so is an unknown
// kind; the merge then stops part way. Entries of into are updated in
// place; snap is never modified. Merging a run's entries into nil sorts
// them into that run's snapshot.
func Merge(into, snap []Metric) ([]Metric, error) {
	at := make(map[string]int, len(into))
	for i, m := range into {
		at[m.key()] = i
	}
	added := false
	for _, m := range snap {
		key := m.key()
		i, ok := at[key]
		if !ok {
			i, added = len(into), true
			at[key] = i
			into = append(into, Metric{Name: m.Name, Labels: m.Labels, Kind: m.Kind})
		}
		have := &into[i]
		if have.Kind != m.Kind {
			return into, fmt.Errorf("obs: merge %s: kind %s vs %s", key, m.Kind, have.Kind)
		}
		switch m.Kind {
		case KindCounter:
			have.Value += m.Value
		case KindGauge:
			if !ok || m.Max > have.Max {
				have.Value, have.Max = m.Max, m.Max
			}
		case KindHistogram:
			if !ok {
				have.Buckets = make([]Bucket, len(m.Buckets))
				for j, b := range m.Buckets {
					have.Buckets[j].Bound = b.Bound
				}
			}
			if len(have.Buckets) != len(m.Buckets) {
				return into, fmt.Errorf("obs: merge %s: %d buckets vs %d", key, len(m.Buckets), len(have.Buckets))
			}
			for j, b := range m.Buckets {
				if b.Bound != have.Buckets[j].Bound {
					return into, fmt.Errorf("obs: merge %s: bound %g vs %g", key, b.Bound, have.Buckets[j].Bound)
				}
				have.Buckets[j].Count += b.Count
			}
			have.Count += m.Count
			have.Sum += m.Sum
		default:
			return into, fmt.Errorf("obs: merge %s: unknown kind %q", key, m.Kind)
		}
	}
	if added {
		sort.Slice(into, func(i, j int) bool { return into[i].key() < into[j].key() })
	}
	return into, nil
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

// Config enables telemetry for one simulation run (core.Config.Telemetry):
// the run's snapshot lands in its output; merge snapshots across runs with
// Merge.
type Config struct {
	// SnapshotEvery, when positive, dumps per-node protocol state
	// (gradients, on-tree flags, cache sizes) at this virtual-time interval
	// to the run's tracer, which must implement trace.SnapshotSink, or to
	// its flight recorder.
	SnapshotEvery time.Duration
}

// Validate reports the first problem with the configuration, if any.
func (c Config) Validate() error {
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("obs: negative snapshot interval %v", c.SnapshotEvery)
	}
	return nil
}
