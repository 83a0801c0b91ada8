package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/harness"
)

// pinnedSeeds are the seeds whose digests are committed: 0 is the default
// seed, 7 is held out for checking a claimed gain.
var pinnedSeeds = []int64{0, 7}

//go:embed testdata
var pinnedFS embed.FS

func pinnedName(workload string, seed int64) string {
	return fmt.Sprintf("%s.seed%d.digests", workload, seed)
}

// pinnedDigests returns the committed sorted digests of one pass of the
// workload at its benchmark size, if the seed is pinned.
func pinnedDigests(workload string, seed int64) ([]string, bool) {
	data, err := pinnedFS.ReadFile("testdata/" + pinnedName(workload, seed))
	if err != nil {
		return nil, false
	}
	return strings.Fields(string(data)), true
}

// cellDigest hashes the deterministic part of one cell's output: the paper's
// metrics, density, sends, and the chaos, mobility and repair counters. The
// kernel stats and telemetry carry wall-clock readings and are left out.
func cellDigest(lo harness.LedgerOutput) (string, error) {
	v := map[string]any{
		"metrics": lo.Metrics,
		"density": lo.Density,
		"sent":    lo.Sent,
		"repair":  lo.Repair,
	}
	if c := lo.Chaos; c != nil {
		v["chaos"] = []int{c.ViolationCount, c.TopologyFaults}
	}
	if m := lo.Mobility; m != nil {
		v["mobility"] = []int{m.Epochs, m.LinkChanges, m.Joins, m.Departures}
	}
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// digests returns the sorted digests of a pass's cells and how many cells
// could not be hashed. The sweep's cell order is not fixed, so passes are
// compared as sorted multisets.
func digests(outs []harness.LedgerOutput) ([]string, int) {
	ds := make([]string, 0, len(outs))
	bad := 0
	for _, lo := range outs {
		d, err := cellDigest(lo)
		if err != nil {
			bad++
			continue
		}
		ds = append(ds, d)
	}
	sort.Strings(ds)
	return ds, bad
}

// unmatched counts the entries of got that want does not account for, each
// entry of want matching at most one of got.
func unmatched(got, want []string) int {
	left := map[string]int{}
	for _, d := range want {
		left[d]++
	}
	n := 0
	for _, d := range got {
		if left[d] > 0 {
			left[d]--
		} else {
			n++
		}
	}
	return n
}

// pin runs one pass of every workload at each pinned seed and writes the
// digests into dir.
func pin(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range workloads {
		for _, seed := range pinnedSeeds {
			p := runPass(w, w.bench, seed, false, nil, 0)
			if p.err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, p.err)
			}
			ds, bad := digests(p.outs)
			if bad > 0 {
				return fmt.Errorf("%s seed %d: %d cells could not be hashed", w.name, seed, bad)
			}
			path := filepath.Join(dir, pinnedName(w.name, seed))
			if err := os.WriteFile(path, []byte(strings.Join(ds, "\n")+"\n"), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "pinned %s (%d cells)\n", path, len(ds))
		}
	}
	return nil
}
