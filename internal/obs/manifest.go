package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// ManifestVersion is bumped whenever the manifest schema changes
// incompatibly (see DESIGN.md "Observability").
const ManifestVersion = 1

// Manifest is the provenance record written beside every results CSV: what
// was run, with what seed and scheme, how long it took, and a digest of the
// telemetry it produced, so every figure is reproducible and perf
// regressions are diffable.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	Figure        string `json:"figure"`
	CreatedAt     string `json:"created_at,omitempty"` // RFC 3339, wall clock
	GoVersion     string `json:"go_version"`
	NumCPU        int    `json:"num_cpu"`
	// Host provenance: the scheduler width and platform the sweep ran on
	// (wall-time and events/s figures are only comparable within a host).
	GoMaxProcs int    `json:"go_max_procs,omitempty"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`

	// The sweep configuration: schemes and x values of the table, random
	// fields per point, simulated seconds per run, and the seed base every
	// per-run seed derives from.
	Schemes    []string `json:"schemes,omitempty"`
	Xs         []int    `json:"xs,omitempty"`
	Fields     int      `json:"fields"`
	SimSeconds float64  `json:"sim_seconds"`
	BaseSeed   int64    `json:"base_seed"`

	// Execution record: completed runs, wall time, kernel events fired
	// across all runs and the resulting throughput, and the process's peak
	// memory footprint (runtime.MemStats.Sys).
	Runs         int     `json:"runs"`
	WallSeconds  float64 `json:"wall_seconds"`
	KernelEvents uint64  `json:"kernel_events"`
	EventsPerSec float64 `json:"events_per_sec"`
	PeakMemBytes uint64  `json:"peak_mem_bytes"`
	// BytesPerNode, filled only by the scale figure, is each rung's peak
	// in-use heap divided by its node count (max across schemes), aligned
	// with Xs — the per-node footprint the SoA layout work is gated on.
	BytesPerNode []uint64 `json:"bytes_per_node,omitempty"`

	// TelemetryDigest fingerprints Metrics (the merged telemetry snapshot);
	// both are empty when the sweep ran without telemetry.
	TelemetryDigest string   `json:"telemetry_digest,omitempty"`
	Metrics         []Metric `json:"metrics,omitempty"`

	// Complete marks a manifest written after its sweep finished. Manifests
	// land atomically (temp file + rename), so a file that exists at all was
	// fully written; the field lets downstream consumers assert the sweep
	// behind it ran to completion rather than being a partial artifact.
	Complete bool `json:"complete"`
}

// Write marshals the manifest as indented JSON to path. The write is atomic
// — temp file in the same directory, fsync, rename — so a crash mid-write
// never leaves a truncated manifest that parses as complete.
func (m *Manifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// WriteFileAtomic writes data to path via a same-directory temp file, fsync,
// and rename, so readers only ever observe the old content or the complete
// new content — never a truncation.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadManifest loads a manifest written by Write.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: parse manifest %s: %w", path, err)
	}
	return &m, nil
}

// PeakMemoryBytes reports the process's current memory footprint from the
// Go runtime (bytes obtained from the OS) — an honest upper bound on the
// run's peak heap, cheap enough to sample once per manifest.
func PeakMemoryBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys
}
