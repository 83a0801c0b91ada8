package harness

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// engineCase is one figure as the engine tests run it: tiny options, the
// regeneration, and one ledger key its first run must record — the key
// format a ledger written by an earlier build replays under.
type engineCase struct {
	name string
	opts Options
	run  func(Options) (interface{ CSV(io.Writer) error }, error)
	key  string
}

// adapt wraps a figure regeneration for the case table.
func adapt[T interface{ CSV(io.Writer) error }](fn func(Options) (T, error)) func(Options) (interface{ CSV(io.Writer) error }, error) {
	return func(o Options) (interface{ CSV(io.Writer) error }, error) { return fn(o) }
}

func engineCases() []engineCase {
	tiny := func(nodes ...int) Options {
		return Options{Fields: 2, Duration: 10 * time.Second, Nodes: nodes, Telemetry: true}
	}
	grid := tiny(chaosNodes)
	grid.Fields = 1
	return []engineCase{
		{"fig5", tiny(60, 100), adapt(Fig5), "fig5|greedy|60|0"},
		{"chaos", grid, adapt(Chaos), "figchaos|baseline/greedy|150|0"},
		{"mobility", grid, adapt(Mobility), "figmobility|static/repair=false|150|0"},
		{"repair", grid, adapt(Repair), "figrepair|baseline/repair=false|150|0"},
		{"scale", tiny(100, 150), adapt(Scale), "figscale|greedy|100|0"},
		{"lifetime", tiny(60), adapt(LifetimeStudy), "lifetime|probe|60|0"},
	}
}

func csvOf(t *testing.T, run func(Options) (interface{ CSV(io.Writer) error }, error), o Options) string {
	t.Helper()
	tbl, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// hostColumns are the scale figure's columns that measure the host (wall
// time, throughput, heap) rather than the model; two fresh runs differ there.
var hostColumns = []string{"wall_s", "events_per_sec", "peak_heap_bytes", "bytes_per_node"}

// withoutHostColumns drops hostColumns from a CSV whose header is its first
// line not starting with '#'.
func withoutHostColumns(csv string) string {
	var drop map[int]bool
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(csv, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			b.WriteString(line + "\n")
			continue
		}
		cols := strings.Split(line, ",")
		if drop == nil {
			drop = map[int]bool{}
			for i, c := range cols {
				drop[i] = slices.Contains(hostColumns, c)
			}
		}
		var kept []string
		for i, c := range cols {
			if !drop[i] {
				kept = append(kept, c)
			}
		}
		b.WriteString(strings.Join(kept, ",") + "\n")
	}
	return b.String()
}

// TestEngineEveryFigure checks the engine's contract on every figure that
// runs the kernel: the worker count never changes a byte of the CSV, a
// second run over the same ledger replays every cell and renders the same
// CSV, and a closed Interrupt stops the figure before any cell runs.
func TestEngineEveryFigure(t *testing.T) {
	for _, c := range engineCases() {
		t.Run(c.name, func(t *testing.T) {
			serial, parallel := c.opts, c.opts
			serial.Workers, parallel.Workers = 1, 4
			base := withoutHostColumns(csvOf(t, c.run, serial))
			if got := withoutHostColumns(csvOf(t, c.run, parallel)); got != base {
				t.Fatalf("4 workers changed the CSV:\n--- 1 worker ---\n%s--- 4 workers ---\n%s", base, got)
			}

			o := parallel
			o.Ledger = filepath.Join(t.TempDir(), "ledger.ndjson")
			fresh := csvOf(t, c.run, o)
			if got := withoutHostColumns(fresh); got != base {
				t.Fatalf("ledgered run changed the CSV:\n%s", got)
			}
			led, err := OpenLedger(o.Ledger)
			if err != nil {
				t.Fatal(err)
			}
			led.Close()
			if _, ok := led.entries[c.key]; !ok {
				t.Fatalf("ledger has no %q entry", c.key)
			}
			var lines []string
			o.Progress = func(s string) { lines = append(lines, s) }
			o.OnRun = func(LedgerOutput) { t.Error("a ledgered cell re-simulated") }
			// A replay restores even the host columns: the CSV matches byte
			// for byte.
			if got := csvOf(t, c.run, o); got != fresh {
				t.Fatalf("replayed CSV differs:\n--- fresh ---\n%s--- replayed ---\n%s", fresh, got)
			}
			if len(lines) != led.Loaded() {
				t.Fatalf("replay reported %d cells, ledger holds %d", len(lines), led.Loaded())
			}
			for _, l := range lines {
				if !strings.Contains(l, "replayed from ledger") {
					t.Fatalf("resumed figure re-simulated a cell: %q", l)
				}
			}

			interrupt := make(chan struct{})
			close(interrupt)
			o = c.opts
			o.Interrupt = interrupt
			o.OnRun = func(LedgerOutput) { t.Error("a cell ran after the interrupt") }
			if _, err := c.run(o); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("interrupted figure returned %v, want ErrInterrupted", err)
			}
		})
	}
}

// TestEngineNamesFailingCell checks that a failing cell's error names its
// figure, series, x and field in one format, whichever figure it is in.
func TestEngineNamesFailingCell(t *testing.T) {
	o := Options{Fields: 1, Duration: 10 * time.Second, Nodes: []int{1}}
	for _, c := range []struct {
		name string
		run  func(Options) (interface{ CSV(io.Writer) error }, error)
		want string
	}{
		{"fig5", adapt(Fig5), "harness: fig5 greedy x=1 field=0: "},
		{"scale", adapt(Scale), "harness: figscale greedy x=1 field=0: "},
		{"lifetime", adapt(LifetimeStudy), "harness: lifetime probe x=1 field=0: "},
	} {
		_, err := c.run(o)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error %v, want prefix %q", c.name, err, c.want)
		}
	}
}

// TestEngineCloseReportsLedgerError checks that a failing ledger close —
// the fsync that makes a finished sweep durable — reaches the figure's
// caller, and that an earlier error still wins.
func TestEngineCloseReportsLedgerError(t *testing.T) {
	o := Options{Fields: 1, Duration: 10 * time.Second, Nodes: []int{60},
		Ledger: filepath.Join(t.TempDir(), "ledger.ndjson")}
	earlier := errors.New("cell failed")
	for _, prior := range []error{nil, earlier} {
		e, err := startEngine(o, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.led.file.Close(); err != nil {
			t.Fatal(err)
		}
		got := prior
		e.close(&got)
		switch {
		case prior == nil && got == nil:
			t.Error("ledger close error dropped")
		case prior != nil && got != prior:
			t.Errorf("close replaced the earlier error %v with %v", prior, got)
		}
	}
}
