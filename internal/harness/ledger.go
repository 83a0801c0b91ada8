package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/obs"
)

// LedgerOutput is the per-run summary the aggregation loops consume — the
// slice of core.Output the figures actually read, small enough to persist.
// Fresh runs and ledger replays flow through the same struct, and Go's JSON
// number encoding round-trips float64 exactly, so a resumed sweep renders
// byte-identical tables and CSVs.
type LedgerOutput struct {
	Metrics  metrics.Result   `json:"metrics"`
	Density  float64          `json:"density"`
	Sent     map[msg.Kind]int `json:"sent,omitempty"`
	Lifetime core.Lifetime    `json:"lifetime"`
	Kernel   core.KernelStats `json:"kernel"`

	Chaos    *chaos.Report          `json:"chaos,omitempty"`
	Mobility *core.MobilityReport   `json:"mobility,omitempty"`
	Repair   *diffusion.RepairStats `json:"repair,omitempty"`

	// Telemetry is the run's registry snapshot (when Options.Telemetry is
	// on), preserved so replays merge into sweep manifests exactly like the
	// original runs did.
	Telemetry []obs.Metric `json:"telemetry,omitempty"`
	// PeakHeap samples the in-use heap right after the run
	// (obs.HeapFootprintBytes — no longer the monotonic MemStats.Sys), for
	// the scale figure's per-rung memory and bytes/node columns.
	PeakHeap uint64 `json:"peak_heap,omitempty"`
}

// summarize reduces a run's output to the ledgered slice.
func summarize(out core.Output) LedgerOutput {
	return LedgerOutput{
		Metrics:   out.Metrics,
		Density:   out.Density,
		Sent:      out.Sent,
		Lifetime:  out.Lifetime,
		Kernel:    out.Kernel,
		Chaos:     out.Chaos,
		Mobility:  out.Mobility,
		Repair:    out.Repair,
		Telemetry: out.Telemetry,
		PeakHeap:  obs.HeapFootprintBytes(),
	}
}

// LedgerEntry is one completed sweep cell: its coordinates, the seed and
// simulated seconds that validate a replay, and the run's summary.
type LedgerEntry struct {
	Figure  string  `json:"figure"`
	Series  string  `json:"series"`
	X       int     `json:"x"`
	Field   int     `json:"field"`
	Seed    int64   `json:"seed"`
	SimSecs float64 `json:"sim_secs"`
	// Shards is decoded but never written: ledgers from before the sharded
	// kernel was retired carry the strip count (K >= 2) of a sharded run
	// there. Such a run was a different event interleaving than the serial
	// one, so lookup never replays an entry where it is non-zero.
	Shards int          `json:"shards,omitempty"`
	Output LedgerOutput `json:"output"`
}

func ledgerKey(figure, series string, x, field int) string {
	return fmt.Sprintf("%s|%s|%d|%d", figure, series, x, field)
}

// Ledger is the sweep progress ledger: an append-only NDJSON file with one
// LedgerEntry per completed run. Reopening the same path resumes an
// interrupted sweep — cells already on file replay instead of simulating.
// All methods are safe on a nil receiver (persistence disabled) and for
// concurrent use by sweep workers.
type Ledger struct {
	mu      sync.Mutex
	file    *os.File
	entries map[string]*LedgerEntry
	loaded  int
}

// OpenLedger loads the ledger at path (created if missing) and opens it for
// appending. Unparsable lines — e.g. a record cut short by the very
// interruption the ledger exists to survive — are skipped, and a re-recorded
// cell's later line supersedes the earlier one.
func OpenLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("harness: read ledger: %w", err)
	}
	entries := make(map[string]*LedgerEntry)
	loaded := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		e := &LedgerEntry{}
		if json.Unmarshal(line, e) != nil {
			continue
		}
		entries[ledgerKey(e.Figure, e.Series, e.X, e.Field)] = e
		loaded++
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: open ledger: %w", err)
	}
	return &Ledger{file: f, entries: entries, loaded: loaded}, nil
}

// Loaded returns how many completed-cell records the ledger held at open.
func (l *Ledger) Loaded() int {
	if l == nil {
		return 0
	}
	return l.loaded
}

// Close fsyncs and closes the ledger file. The sync makes a graceful
// shutdown durable: every recorded cell survives a power cut immediately
// after exit, not just a process death.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	serr := l.file.Sync()
	cerr := l.file.Close()
	if serr != nil {
		return fmt.Errorf("harness: sync ledger: %w", serr)
	}
	return cerr
}

// lookup returns the recorded summary for a cell, if one exists and was
// produced by a serial run with the same seed and simulated duration (a
// ledger written under different options never replays).
func (l *Ledger) lookup(figure, series string, x, field int, seed int64, simSecs float64) (LedgerOutput, bool) {
	if l == nil {
		return LedgerOutput{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[ledgerKey(figure, series, x, field)]
	if !ok || e.Seed != seed || e.SimSecs != simSecs || e.Shards != 0 {
		return LedgerOutput{}, false
	}
	return e.Output, true
}

// record appends one completed cell and indexes it for this process's own
// later lookups. The append holds an exclusive flock, so two processes
// sharing one ledger file (two sweep invocations racing on the same path)
// interleave whole lines rather than corrupting each other — O_APPEND
// positions the write at the true end, the lock keeps it atomic.
func (l *Ledger) record(e LedgerEntry) error {
	if l == nil {
		return nil
	}
	data, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("harness: marshal ledger entry: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[ledgerKey(e.Figure, e.Series, e.X, e.Field)] = &e
	if err := lockFile(l.file); err != nil {
		return fmt.Errorf("harness: lock ledger: %w", err)
	}
	_, werr := l.file.Write(append(data, '\n'))
	if uerr := unlockFile(l.file); werr == nil {
		werr = uerr
	}
	if werr != nil {
		return fmt.Errorf("harness: append ledger: %w", werr)
	}
	return nil
}

// openLedger opens Options.Ledger when set; the nil ledger it otherwise
// returns disables persistence (every lookup misses, every record no-ops).
func openLedger(o Options) (*Ledger, error) {
	if o.Ledger == "" {
		return nil, nil
	}
	return OpenLedger(o.Ledger)
}

// progressTracker counts a sweep's finished cells and reports each one to
// Options.Progress with a progress/ETA suffix. Safe for concurrent workers.
type progressTracker struct {
	mu       sync.Mutex
	total    int
	fresh    int
	replayed int
	start    time.Time
}

func newProgressTracker(total int) *progressTracker {
	return &progressTracker{total: total, start: time.Now()}
}

// note accounts one finished cell and, when progress is non-nil, calls it
// with line plus a "[12/60 eta 1m3s]" suffix. The call is made under the
// tracker's lock, so sweep workers never call progress concurrently. The
// ETA extrapolates the mean elapsed-per-fresh-run over the remaining cells;
// replayed cells are free, so none is shown until a run completes.
func (p *progressTracker) note(progress func(string), replayed bool, line string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if replayed {
		p.replayed++
	} else {
		p.fresh++
	}
	if progress == nil {
		return
	}
	done := p.fresh + p.replayed
	s := fmt.Sprintf("%d/%d", done, p.total)
	if p.replayed > 0 {
		s += fmt.Sprintf(" (%d replayed)", p.replayed)
	}
	if remaining := p.total - done; remaining > 0 && p.fresh > 0 {
		per := time.Since(p.start) / time.Duration(p.fresh)
		s += fmt.Sprintf(" eta %v", (per * time.Duration(remaining)).Round(time.Second))
	}
	progress(fmt.Sprintf("%s [%s]", line, s))
}

// cellID locates one run within a sweep, for the ledger key, the progress
// line, and the flight-dump filename.
type cellID struct {
	figure string
	series string
	x      int
	field  int
}

// flightName is the per-cell dump filename under Options.FlightDir.
func (id cellID) flightName() string {
	series := strings.NewReplacer("/", "-", "=", "-").Replace(id.series)
	return fmt.Sprintf("%s_%s_x%d_f%d.flight.ndjson", id.figure, series, id.x, id.field)
}

// runCell executes one sweep cell through the ledger: a matching recorded
// entry replays without simulating; otherwise the run executes and its
// summary is appended. Fresh runs feed Options.OnRun, and both paths emit
// one Options.Progress line with the tracker's progress/ETA suffix. Once
// Options.Interrupt has fired, the cell is skipped with ErrInterrupted.
func runCell(o Options, led *Ledger, tr *progressTracker, id cellID, cfg core.Config) (LedgerOutput, error) {
	if interrupted(o.Interrupt) {
		return LedgerOutput{}, ErrInterrupted
	}
	if lo, ok := led.lookup(id.figure, id.series, id.x, id.field, cfg.Seed, cfg.Duration.Seconds()); ok {
		tr.note(o.Progress, true, fmt.Sprintf("%s %s x=%d field=%d replayed from ledger",
			id.figure, id.series, id.x, id.field))
		return lo, nil
	}
	if o.FlightDir != "" && cfg.FlightPath == "" {
		cfg.FlightPath = filepath.Join(o.FlightDir, id.flightName())
	}
	if o.SelfTestViolation > 0 && cfg.Chaos != nil && cfg.Chaos.CheckInvariants {
		cc := *cfg.Chaos
		cc.SelfTestViolation = o.SelfTestViolation
		cfg.Chaos = &cc
	}
	out, err := core.Run(cfg)
	if err != nil {
		return LedgerOutput{}, err
	}
	lo := summarize(out)
	if err := led.record(LedgerEntry{
		Figure: id.figure, Series: id.series, X: id.x, Field: id.field,
		Seed: cfg.Seed, SimSecs: cfg.Duration.Seconds(), Output: lo,
	}); err != nil {
		return LedgerOutput{}, err
	}
	if o.OnRun != nil {
		o.OnRun(lo)
	}
	tr.note(o.Progress, false, fmt.Sprintf("%s %s x=%d field=%d done (%d events, %.0f ev/s)",
		id.figure, id.series, id.x, id.field, lo.Kernel.Events, lo.Kernel.EventsPerSec()))
	return lo, nil
}
