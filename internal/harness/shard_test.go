package harness

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
)

// TestWorkersShardClamp: jobs × shards never exceeds GOMAXPROCS.
func TestWorkersShardClamp(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	cases := []struct {
		workers, shards, want int
	}{
		{4, 0, 4}, // serial: untouched
		{4, 1, 4}, // shards=1 is the serial path too
		{4, 2, 2}, // 2×2 = 4 cores
		{1, 2, 1}, // explicit low request survives
		{4, 8, 1}, // a run wider than the machine still gets one worker
		{0, 2, 2}, // default workers clamp from GOMAXPROCS
		{3, 4, 1}, // 4 shards on 4 cores leaves one worker
	}
	for _, tc := range cases {
		o := Options{Workers: tc.workers, Shards: tc.shards}
		if got := o.workers(); got != tc.want {
			t.Errorf("workers=%d shards=%d: got %d, want %d", tc.workers, tc.shards, got, tc.want)
		}
	}
}

// TestWarnWorkerClamp: the cap emits exactly one progress line, and only
// when it actually bites.
func TestWarnWorkerClamp(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	var lines []string
	o := Options{Workers: 4, Shards: 2, Progress: func(s string) { lines = append(lines, s) }}
	o.warnWorkerClamp()
	if len(lines) != 1 {
		t.Fatalf("clamped options emitted %d lines, want 1: %v", len(lines), lines)
	}
	lines = nil
	o = Options{Workers: 1, Shards: 2, Progress: func(s string) { lines = append(lines, s) }}
	o.warnWorkerClamp()
	if len(lines) != 0 {
		t.Fatalf("unclamped options warned anyway: %v", lines)
	}
}

// TestApplyShardsEnvelope: eligible cells get the shard count, ineligible
// cells silently keep the serial path.
func TestApplyShardsEnvelope(t *testing.T) {
	o := Options{Shards: 2}
	plain := core.DefaultConfig()
	if got := o.applyShards(plain); got.Shards != 2 {
		t.Errorf("eligible cell got Shards=%d, want 2", got.Shards)
	}
	failed := core.DefaultConfig()
	fc := failure.DefaultConfig()
	failed.Failures = &fc
	if got := o.applyShards(failed); got.Shards != 0 {
		t.Errorf("failure-wave cell got Shards=%d, want 0 (serial fallback)", got.Shards)
	}
	ideal := core.DefaultConfig()
	ideal.Scheme = core.SchemeFlooding
	if got := o.applyShards(ideal); got.Shards != 0 {
		t.Errorf("idealized cell got Shards=%d, want 0 (serial fallback)", got.Shards)
	}
	serial := Options{Shards: 1}
	if got := serial.applyShards(plain); got.Shards != 0 {
		t.Errorf("shards=1 options set Shards=%d, want untouched 0", got.Shards)
	}
}

// TestFig5ShardedCSVDeterministic runs a small sharded Fig5 sweep twice and
// compares the rendered CSVs byte for byte — the figure-level determinism
// contract on top of the kernel-level one.
func TestFig5ShardedCSVDeterministic(t *testing.T) {
	o := Options{
		Fields:   1,
		Duration: 20 * time.Second,
		Nodes:    []int{60},
		Shards:   2,
	}
	render := func() []byte {
		tab, err := Fig5(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tab.CSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("sharded Fig5 CSVs differ between reruns:\n%s\n---\n%s", a, b)
	}
}

// TestLedgerShardKey: an entry recorded under one shard count never replays
// under another.
func TestLedgerShardKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	led, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	e := LedgerEntry{Figure: "fig5", Series: "greedy", X: 150, Field: 0, Seed: 9, SimSecs: 60, Shards: 2}
	if err := led.record(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := led.lookup("fig5", "greedy", 150, 0, 9, 60, 2); !ok {
		t.Error("matching shard count missed")
	}
	if _, ok := led.lookup("fig5", "greedy", 150, 0, 9, 60, 0); ok {
		t.Error("serial lookup replayed a sharded entry")
	}
	led.Close()

	// Reopened, an old-format line (no shards field) replays only as serial.
	led2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if _, ok := led2.lookup("fig5", "greedy", 150, 0, 9, 60, 2); !ok {
		t.Error("reopened ledger lost the sharded entry")
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
			if _, ok := reopened.lookup("fig5", fmt.Sprintf("h%d", h), i, 0, int64(i), 60, 0); !ok {
				t.Fatalf("entry h%d/%d missing after concurrent append", h, i)
			}
		}
	}
}
