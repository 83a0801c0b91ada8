package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// ledgerOptions is a tiny sweep: enough cells to exercise concurrency, small
// enough to run twice in a test.
func ledgerOptions(ledger string, progress func(string)) Options {
	return Options{
		Fields:    2,
		Duration:  30 * time.Second,
		Nodes:     []int{50, 100},
		Telemetry: true,
		Ledger:    ledger,
		Progress:  progress,
	}
}

// TestLedgerResume checks the resumable-sweep contract: a second run over
// the same ledger replays every cell without simulating, and the resumed
// table renders a byte-identical CSV.
func TestLedgerResume(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "sweep.ledger.ndjson")

	var firstLines []string
	t1, err := Fig5(ledgerOptions(ledger, func(s string) { firstLines = append(firstLines, s) }))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range firstLines {
		if strings.Contains(l, "replayed") {
			t.Fatalf("fresh sweep replayed a cell: %q", l)
		}
	}

	var secondLines []string
	t2, err := Fig5(ledgerOptions(ledger, func(s string) { secondLines = append(secondLines, s) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(secondLines) == 0 {
		t.Fatal("no progress lines from the resumed sweep")
	}
	for _, l := range secondLines {
		if !strings.Contains(l, "replayed from ledger") {
			t.Fatalf("resumed sweep re-simulated a cell: %q", l)
		}
	}

	var csv1, csv2 bytes.Buffer
	if err := t1.CSV(&csv1); err != nil {
		t.Fatal(err)
	}
	if err := t2.CSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Fatalf("resumed CSV differs from the original:\n--- fresh ---\n%s--- resumed ---\n%s",
			csv1.String(), csv2.String())
	}
}

// TestLedgerIgnoresMismatchedRuns checks the replay guard: entries recorded
// under a different seed or duration never replay.
func TestLedgerIgnoresMismatchedRuns(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "sweep.ledger.ndjson")
	if _, err := Fig5(ledgerOptions(ledger, nil)); err != nil {
		t.Fatal(err)
	}

	opts := ledgerOptions(ledger, nil)
	opts.BaseSeed = 999 // different seeds: nothing on file matches
	var lines []string
	opts.Progress = func(s string) { lines = append(lines, s) }
	if _, err := Fig5(opts); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if strings.Contains(l, "replayed") {
			t.Fatalf("mismatched-seed sweep replayed a cell: %q", l)
		}
	}
}

// TestLedgerSkipsTruncatedLines checks crash tolerance: a ledger whose last
// record was cut mid-write loads the intact records and drops the ragged
// tail.
func TestLedgerSkipsTruncatedLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ledger.ndjson")
	if _, err := Fig5(ledgerOptions(path, nil)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	full.Close()
	if full.Loaded() == 0 {
		t.Fatal("no ledger entries after a completed sweep")
	}

	// Cut the file mid-way through its final record.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	cut, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("truncated ledger failed to open: %v", err)
	}
	cut.Close()
	if cut.Loaded() != full.Loaded()-1 {
		t.Fatalf("truncated ledger loaded %d entries, want %d", cut.Loaded(), full.Loaded()-1)
	}
}

// TestLedgerNeverReplaysShardedEntries checks the retired-entry guard: a
// ledger written while the sharded kernel existed may hold a "shards":2
// line, a different event interleaving than the serial run of that cell.
// The sweep must re-simulate exactly that cell, replay every serial line,
// and render the CSV of a sweep with no ledger.
func TestLedgerNeverReplaysShardedEntries(t *testing.T) {
	golden, err := Fig5(ledgerOptions("", nil))
	if err != nil {
		t.Fatal(err)
	}

	ledger := filepath.Join(t.TempDir(), "sweep.ledger.ndjson")
	if _, err := Fig5(ledgerOptions(ledger, nil)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var e LedgerEntry
	if err := json.Unmarshal(lines[0], &e); err != nil {
		t.Fatal(err)
	}
	// Give the sharded line its own numbers, as a sharded run had, so a
	// replay would also show in the CSV.
	e.Shards = 2
	e.Output.Metrics.AvgDissipatedEnergy *= 2
	e.Output.Metrics.AvgDelay *= 2
	if lines[0], err = json.Marshal(e); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(lines[0], []byte(`"shards":2`)) {
		t.Fatalf("sharded line lost its shard count: %s", lines[0])
	}
	if err := os.WriteFile(ledger, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	var progress []string
	resumed, err := Fig5(ledgerOptions(ledger, func(s string) { progress = append(progress, s) }))
	if err != nil {
		t.Fatal(err)
	}
	cell := fmt.Sprintf("%s %s x=%d field=%d ", e.Figure, e.Series, e.X, e.Field)
	simulated, replayed := 0, 0
	for _, l := range progress {
		switch {
		case strings.Contains(l, "replayed from ledger"):
			if strings.HasPrefix(l, cell) {
				t.Fatalf("sharded entry replayed: %q", l)
			}
			replayed++
		case strings.Contains(l, " done ("):
			if !strings.HasPrefix(l, cell) {
				t.Fatalf("serial entry re-simulated: %q", l)
			}
			simulated++
		}
	}
	if simulated != 1 || replayed != len(lines)-1 {
		t.Fatalf("sweep simulated %d and replayed %d cells, want 1 and %d:\n%s",
			simulated, replayed, len(lines)-1, strings.Join(progress, "\n"))
	}

	var want, got bytes.Buffer
	if err := golden.CSV(&want); err != nil {
		t.Fatal(err)
	}
	if err := resumed.CSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("CSV differs from a sweep with no ledger:\n--- no ledger ---\n%s--- sharded line ---\n%s",
			want.String(), got.String())
	}
}

// TestLedgerConcurrentProcesses opens the same ledger file through two
// independent handles — what two racing sweep invocations look like — and
// appends from both concurrently. Every line must survive intact.
func TestLedgerConcurrentProcesses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	a, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	const perHandle = 50
	var wg sync.WaitGroup
	for h, led := range []*Ledger{a, b} {
		wg.Add(1)
		go func(h int, led *Ledger) {
			defer wg.Done()
			for i := 0; i < perHandle; i++ {
				e := LedgerEntry{
					Figure: "fig5", Series: fmt.Sprintf("h%d", h),
					X: i, Seed: int64(i), SimSecs: 60,
				}
				if err := led.record(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(h, led)
	}
	wg.Wait()
	a.Close()
	b.Close()
	reopened, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got, want := reopened.Loaded(), 2*perHandle; got != want {
		t.Fatalf("reopened ledger holds %d entries, want %d (a torn line means the append was not atomic)", got, want)
	}
	for h := 0; h < 2; h++ {
		for i := 0; i < perHandle; i++ {
			if _, ok := reopened.lookup("fig5", fmt.Sprintf("h%d", h), i, 0, int64(i), 60); !ok {
				t.Fatalf("entry h%d/%d missing after concurrent append", h, i)
			}
		}
	}
}

// TestSweepInterrupted checks the graceful-stop contract at the sweep level:
// with the interrupt already raised, no cell starts and the sweep surfaces
// ErrInterrupted for the caller's exit-130 path.
func TestSweepInterrupted(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	o := ledgerOptions("", nil)
	o.Interrupt = interrupt
	o.OnRun = func(LedgerOutput) { t.Error("a cell ran after the interrupt") }
	if _, err := Fig5(o); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted sweep returned %v, want ErrInterrupted", err)
	}
}

// TestInterruptDrainsToLedger checks the cell-boundary drain: a one-worker
// sweep interrupted once its first cell finishes stops with ErrInterrupted
// and that cell on the ledger, and a re-run over the ledger replays it and
// renders the same CSV as a sweep that was never interrupted.
func TestInterruptDrainsToLedger(t *testing.T) {
	golden, err := Fig5(ledgerOptions("", nil))
	if err != nil {
		t.Fatal(err)
	}

	ledger := filepath.Join(t.TempDir(), "sweep.ledger.ndjson")
	interrupt := make(chan struct{})
	o := ledgerOptions(ledger, nil)
	o.Workers = 1
	o.Interrupt = interrupt
	fresh := 0
	o.OnRun = func(LedgerOutput) {
		if fresh++; fresh == 1 {
			close(interrupt)
		}
	}
	if _, err := Fig5(o); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted sweep returned %v, want ErrInterrupted", err)
	}
	if fresh != 1 {
		t.Fatalf("interrupted sweep simulated %d cells, want 1", fresh)
	}
	led, err := OpenLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	led.Close()
	if led.Loaded() != 1 {
		t.Fatalf("ledger holds %d cells after the interrupt, want the 1 that finished", led.Loaded())
	}

	var lines []string
	resumed, err := Fig5(ledgerOptions(ledger, func(s string) { lines = append(lines, s) }))
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, l := range lines {
		if strings.Contains(l, "replayed from ledger") {
			replayed++
		}
	}
	if replayed != 1 {
		t.Fatalf("resumed sweep replayed %d cells, want 1:\n%s", replayed, strings.Join(lines, "\n"))
	}

	var want, got bytes.Buffer
	if err := golden.CSV(&want); err != nil {
		t.Fatal(err)
	}
	if err := resumed.CSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("resumed CSV differs from an uninterrupted sweep:\n--- uninterrupted ---\n%s--- resumed ---\n%s",
			want.String(), got.String())
	}
}
