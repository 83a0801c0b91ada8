// Package bench parses `go test -bench` output and maintains committed
// baseline files (BENCH_*.json) that CI diffs new runs against.
//
// The regression gate defaults to the machine-independent quantities —
// allocs/op and B/op are properties of the code, not the host — while
// ns/op and throughput comparisons are opt-in because they vary with CI
// hardware far more than the 15% gate can absorb.
package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the baseline file layout.
const SchemaVersion = 1

// Result is one benchmark's measurements. NsPerOp, BytesPerOp, and
// AllocsPerOp mirror the standard columns; Metrics holds the custom
// b.ReportMetric values (events/s, delivery ratios, ...) keyed by unit.
type Result struct {
	Name        string             `json:"name"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is a committed snapshot of a benchmark run.
type Baseline struct {
	SchemaVersion int      `json:"schema_version"`
	GoOS          string   `json:"goos,omitempty"`
	GoArch        string   `json:"goarch,omitempty"`
	CPU           string   `json:"cpu,omitempty"`
	Results       []Result `json:"results"`
}

// Lookup returns the named result, if present.
func (b *Baseline) Lookup(name string) (Result, bool) {
	for _, r := range b.Results {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// Parse reads `go test -bench -benchmem` output and collects the benchmark
// lines into a Baseline. Non-benchmark lines (headers, PASS, ok) are
// skipped except for the goos/goarch/cpu header trio, which is recorded.
// Repeated runs of one benchmark (`-count N`) collapse to one result
// holding the median of each quantity.
func Parse(r io.Reader) (*Baseline, error) {
	b := &Baseline{SchemaVersion: SchemaVersion}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			b.GoOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			b.GoArch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			b.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		res, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		b.Results = append(b.Results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(b.Results, func(i, j int) bool { return b.Results[i].Name < b.Results[j].Name })
	b.Results = collapseRepeats(b.Results)
	return b, nil
}

// collapseRepeats merges each run of equal names in the name-sorted results
// into one result: the median of every quantity taken separately, so a
// noisy metric reads its typical run rather than whichever ran first.
func collapseRepeats(results []Result) []Result {
	out := results[:0]
	for len(results) > 0 {
		n := 1
		for n < len(results) && results[n].Name == results[0].Name {
			n++
		}
		runs := results[:n]
		results = results[n:]
		if n == 1 {
			out = append(out, runs[0])
			continue
		}
		med := func(get func(Result) float64) float64 {
			vs := make([]float64, len(runs))
			for i, r := range runs {
				vs[i] = get(r)
			}
			return median(vs)
		}
		m := Result{
			Name:        runs[0].Name,
			Iters:       int64(med(func(r Result) float64 { return float64(r.Iters) })),
			NsPerOp:     med(func(r Result) float64 { return r.NsPerOp }),
			BytesPerOp:  med(func(r Result) float64 { return r.BytesPerOp }),
			AllocsPerOp: med(func(r Result) float64 { return r.AllocsPerOp }),
		}
		// A custom metric takes the median over the runs that reported it.
		for _, r := range runs {
			for unit := range r.Metrics {
				if _, done := m.Metrics[unit]; done {
					continue
				}
				var vs []float64
				for _, r := range runs {
					if v, ok := r.Metrics[unit]; ok {
						vs = append(vs, v)
					}
				}
				if m.Metrics == nil {
					m.Metrics = make(map[string]float64)
				}
				m.Metrics[unit] = median(vs)
			}
		}
		out = append(out, m)
	}
	return out
}

// median returns the middle value of vs (the mean of the middle two for an
// even count), reordering vs.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// parseLine decodes one benchmark result line:
//
//	BenchmarkName-8   123456   17.44 ns/op   48 B/op   1 allocs/op   609736 events/s
func parseLine(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, fmt.Errorf("bench: short benchmark line %q", line)
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so baselines from differently sized
	// machines still match by name.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("bench: bad iteration count in %q: %w", line, err)
	}
	res := Result{Name: name, Iters: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("bench: bad value %q in %q: %w", fields[i], line, err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	return res, nil
}

// Load reads a baseline JSON file.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if b.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("bench: %s has schema %d, want %d", path, b.SchemaVersion, SchemaVersion)
	}
	return &b, nil
}

// Save writes the baseline as indented JSON, stable under re-marshalling so
// committed baselines diff cleanly.
func (b *Baseline) Save(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Delta is one gated quantity's comparison between baseline and current.
type Delta struct {
	Bench    string
	Quantity string
	Base     float64
	Current  float64
	// Ratio is current/base - 1; positive means the quantity grew.
	Ratio float64
	// Regression is set when the growth exceeded the gate's threshold.
	Regression bool
}

// String renders the delta for a CI log.
func (d Delta) String() string {
	verdict := "ok"
	if d.Regression {
		verdict = "REGRESSION"
	}
	return fmt.Sprintf("%-40s %-12s %12.4g -> %-12.4g %+7.1f%%  %s",
		d.Bench, d.Quantity, d.Base, d.Current, 100*d.Ratio, verdict)
}

// CompareOptions configures the regression gate.
type CompareOptions struct {
	// Threshold is the tolerated fractional growth (0.15 = +15%).
	Threshold float64
	// GateTime additionally gates ns/op. Off by default: wall time is a
	// property of the host, and CI hosts differ by more than any
	// reasonable threshold.
	GateTime bool
	// GateMetrics lists custom metric units (b.ReportMetric keys like
	// "bytes/node") to gate in addition to the standard quantities. Growth
	// past Threshold fails; a metric absent from either snapshot's result
	// is skipped, like a benchmark present on only one side.
	GateMetrics []string
}

// Compare gates every benchmark present in both snapshots. Benchmarks only
// in one snapshot are skipped — adding or retiring a benchmark is not a
// regression. It returns all deltas (for the log) in baseline order.
func Compare(base, cur *Baseline, opt CompareOptions) []Delta {
	var deltas []Delta
	gate := func(bench, quantity string, b, c float64) {
		// Growth from zero is infinite ratio; any growth past a zero
		// baseline over the absolute slack of one unit is a regression.
		d := Delta{Bench: bench, Quantity: quantity, Base: b, Current: c}
		switch {
		case b == 0:
			d.Regression = c > 1
			if c > 0 {
				d.Ratio = 1
			}
		default:
			d.Ratio = c/b - 1
			d.Regression = d.Ratio > opt.Threshold
		}
		deltas = append(deltas, d)
	}
	for _, br := range base.Results {
		cr, ok := cur.Lookup(br.Name)
		if !ok {
			continue
		}
		gate(br.Name, "allocs/op", br.AllocsPerOp, cr.AllocsPerOp)
		gate(br.Name, "B/op", br.BytesPerOp, cr.BytesPerOp)
		if opt.GateTime {
			gate(br.Name, "ns/op", br.NsPerOp, cr.NsPerOp)
		}
		for _, unit := range opt.GateMetrics {
			b, bok := br.Metrics[unit]
			c, cok := cr.Metrics[unit]
			if bok && cok {
				gate(br.Name, unit, b, c)
			}
		}
	}
	return deltas
}

// Regressions filters deltas down to the failures.
func Regressions(deltas []Delta) []Delta {
	var bad []Delta
	for _, d := range deltas {
		if d.Regression {
			bad = append(bad, d)
		}
	}
	return bad
}
