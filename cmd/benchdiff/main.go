// Command benchdiff maintains and enforces benchmark baselines.
//
// Snapshot mode parses raw `go test -bench -benchmem` output (a file
// argument or stdin) into a committed baseline:
//
//	go test -bench=. -benchmem -run '^$' . | benchdiff -out BENCH_1.json
//
// Repeated runs of one benchmark (`go test -count N`) collapse to the
// median of each quantity, in snapshot and compare mode alike.
//
// Compare mode gates a new run against a committed baseline and exits
// non-zero on regression. The current run may be raw benchmark output or a
// previously snapshotted JSON file (detected by content):
//
//	go test -bench=. -benchmem -run '^$' . | benchdiff -baseline BENCH_1.json
//	benchdiff -baseline BENCH_1.json -threshold 0.10 current.txt
//
// Only allocs/op and B/op are gated by default: they are properties of the
// code, identical on every machine. Pass -time to also gate ns/op, which
// is only meaningful when baseline and current ran on the same hardware.
// Pass -metric <unit> (repeatable) to gate a custom b.ReportMetric column
// whose growth is bad, e.g. -metric bytes/node.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// errRegression distinguishes gate failures from usage errors.
var errRegression = fmt.Errorf("benchmark regression")

// metricList collects repeated -metric flags.
type metricList []string

func (m *metricList) String() string { return strings.Join(*m, ",") }

func (m *metricList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty metric unit")
	}
	*m = append(*m, v)
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	outPath := fs.String("out", "", "snapshot mode: write parsed results to this baseline JSON")
	basePath := fs.String("baseline", "", "compare mode: baseline JSON to gate against")
	threshold := fs.Float64("threshold", 0.15, "tolerated fractional growth per gated quantity")
	gateTime := fs.Bool("time", false, "also gate ns/op (same-hardware comparisons only)")
	var metrics metricList
	fs.Var(&metrics, "metric", "custom metric unit to gate where growth is bad (repeatable), e.g. bytes/node")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*outPath == "") == (*basePath == "") {
		return fmt.Errorf("exactly one of -out (snapshot) or -baseline (compare) is required")
	}

	cur, err := readInput(fs.Args())
	if err != nil {
		return err
	}

	if *outPath != "" {
		if len(cur.Results) == 0 {
			return fmt.Errorf("no benchmark results in input")
		}
		if err := cur.Save(*outPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d benchmark results to %s\n", len(cur.Results), *outPath)
		return nil
	}

	base, err := bench.Load(*basePath)
	if err != nil {
		return err
	}
	// A gated metric the baseline never recorded would otherwise be skipped
	// on every benchmark and pass silently — the gate would be vacuous.
	for _, unit := range metrics {
		if !hasMetric(base, unit) {
			return fmt.Errorf("metric %q missing from %s", unit, *basePath)
		}
	}
	deltas := bench.Compare(base, cur, bench.CompareOptions{
		Threshold:   *threshold,
		GateTime:    *gateTime,
		GateMetrics: metrics,
	})
	if len(deltas) == 0 {
		return fmt.Errorf("no benchmarks in common between %s and the current run", *basePath)
	}
	for _, d := range deltas {
		fmt.Fprintln(out, d)
	}
	if bad := bench.Regressions(deltas); len(bad) > 0 {
		fmt.Fprintf(out, "\n%d regression(s) past the %.0f%% gate\n", len(bad), 100**threshold)
		return errRegression
	}
	fmt.Fprintln(out, "\nno regressions")
	return nil
}

// hasMetric reports whether any baseline result carries the custom metric
// unit, i.e. whether gating on it can ever compare anything.
func hasMetric(b *bench.Baseline, unit string) bool {
	for _, r := range b.Results {
		if _, ok := r.Metrics[unit]; ok {
			return true
		}
	}
	return false
}

// readInput loads the current run from the single file argument or stdin,
// accepting either raw `go test -bench` text or a snapshotted JSON file.
func readInput(args []string) (*bench.Baseline, error) {
	var data []byte
	var err error
	switch len(args) {
	case 0:
		data, err = io.ReadAll(os.Stdin)
	case 1:
		if args[0] == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(args[0])
		}
	default:
		return nil, fmt.Errorf("at most one input file, got %v", args)
	}
	if err != nil {
		return nil, err
	}
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '{' {
		// A snapshotted baseline rather than raw benchmark text.
		var b bench.Baseline
		if err := json.Unmarshal(trimmed, &b); err != nil {
			return nil, err
		}
		if b.SchemaVersion != bench.SchemaVersion {
			return nil, fmt.Errorf("input has schema %d, want %d", b.SchemaVersion, bench.SchemaVersion)
		}
		return &b, nil
	}
	return bench.Parse(strings.NewReader(string(data)))
}
