// Package workload places sources and sinks in a sensor field according to
// the paper's placement schemes (§5.1, §5.4).
//
//   - Corner placement (the default): sources are drawn from an 80 m × 80 m
//     square in the bottom-left corner and sinks from a 36 m × 36 m square
//     in the top-right corner — the scheme under which greedy aggregation
//     shines, because sources are near one another and far from the sink.
//   - Random source placement: sources drawn uniformly from the whole
//     field (§5.4's first sensitivity experiment).
//   - Multi-sink placement: the first sink in the top-right corner, the
//     rest uniformly scattered (§5.4's sink-count experiment).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/topology"
)

// Placement selects the source-placement scheme.
type Placement int

// Placement schemes.
const (
	// PlaceCorner draws sources from the bottom-left corner region.
	PlaceCorner Placement = iota + 1
	// PlaceRandom draws sources uniformly from the whole field.
	PlaceRandom
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case PlaceCorner:
		return "corner"
	case PlaceRandom:
		return "random"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Config describes the workload to place.
type Config struct {
	Sources   int
	Sinks     int
	Placement Placement
}

// The paper's regions: SourceRegionSide is the side of the bottom-left
// source square (ignored under PlaceRandom), SinkRegionSide that of the
// top-right sink square.
const (
	SourceRegionSide = 80.0
	SinkRegionSide   = 36.0
)

// Validate reports the first problem with the configuration, if any.
func (c Config) Validate() error {
	switch {
	case c.Sources < 1:
		return fmt.Errorf("workload: need at least 1 source, got %d", c.Sources)
	case c.Sinks < 1:
		return fmt.Errorf("workload: need at least 1 sink, got %d", c.Sinks)
	case c.Placement != PlaceCorner && c.Placement != PlaceRandom:
		return fmt.Errorf("workload: unknown placement %d", int(c.Placement))
	default:
		return nil
	}
}

// Assignment is a concrete choice of sink and source nodes.
type Assignment struct {
	Sinks   []topology.NodeID
	Sources []topology.NodeID
}

// Place selects sinks and sources from field per cfg, using rng for the
// random draws. It returns an error when a region contains too few nodes or
// the assignment is not connected through the field (a partitioned
// workload would measure the placement, not the protocols).
func Place(field *topology.Field, cfg Config, rng *rand.Rand) (Assignment, error) {
	if err := cfg.Validate(); err != nil {
		return Assignment{}, err
	}
	area := field.Area()
	sinkRegion := geom.Rect{
		MinX: area.MaxX - SinkRegionSide, MinY: area.MaxY - SinkRegionSide,
		MaxX: area.MaxX, MaxY: area.MaxY,
	}
	srcRegion := geom.Rect{
		MinX: area.MinX, MinY: area.MinY,
		MaxX: area.MinX + SourceRegionSide, MaxY: area.MinY + SourceRegionSide,
	}

	var a Assignment
	taken := make(map[topology.NodeID]bool)

	// First sink from the corner region; additional sinks scattered
	// uniformly (§5.4).
	cornerSinks := field.NodesIn(sinkRegion)
	first, err := pick(cornerSinks, taken, rng)
	if err != nil {
		return Assignment{}, fmt.Errorf("workload: sink region has no free nodes: %w", err)
	}
	a.Sinks = append(a.Sinks, first)
	all := make([]topology.NodeID, field.Len())
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	for len(a.Sinks) < cfg.Sinks {
		s, err := pick(all, taken, rng)
		if err != nil {
			return Assignment{}, fmt.Errorf("workload: not enough nodes for %d sinks: %w", cfg.Sinks, err)
		}
		a.Sinks = append(a.Sinks, s)
	}

	srcPool := all
	if cfg.Placement == PlaceCorner {
		srcPool = field.NodesIn(srcRegion)
	}
	for len(a.Sources) < cfg.Sources {
		s, err := pick(srcPool, taken, rng)
		if err != nil {
			return Assignment{}, fmt.Errorf("workload: not enough nodes for %d %s sources: %w",
				cfg.Sources, cfg.Placement, err)
		}
		a.Sources = append(a.Sources, s)
	}

	endpoints := append(append([]topology.NodeID(nil), a.Sinks...), a.Sources...)
	if !field.Connected(endpoints) {
		return Assignment{}, fmt.Errorf("workload: sources and sinks are not mutually reachable")
	}
	return a, nil
}

// pick draws a uniform element of pool not yet taken, marking it taken.
func pick(pool []topology.NodeID, taken map[topology.NodeID]bool, rng *rand.Rand) (topology.NodeID, error) {
	free := make([]topology.NodeID, 0, len(pool))
	for _, id := range pool {
		if !taken[id] {
			free = append(free, id)
		}
	}
	if len(free) == 0 {
		return 0, fmt.Errorf("no free nodes")
	}
	id := free[rng.Intn(len(free))]
	taken[id] = true
	return id, nil
}
