// Package topology generates and queries sensor fields: node placements in a
// rectangular area with a fixed radio range (unit-disk connectivity).
//
// The paper studies seven field sizes (50..350 nodes in steps of 50) placed
// uniformly at random in a 200 m × 200 m square with a 40 m radio range,
// giving mean radio densities from ~6 to ~43 neighbors. Ten random fields per
// size are generated and results averaged; a Field here corresponds to one
// such placement, identified by its seed.
package topology

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
)

// NodeID identifies a node within a field. IDs are dense, starting at 0.
// Note that node IDs exist only in the simulator and its reports; the
// simulated protocol itself is address-free (nodes only distinguish
// neighbors), per the diffusion design.
type NodeID int

// Field is a node placement with unit-disk connectivity. A freshly built
// field is static; MoveNode relocates a node and incrementally rebuilds the
// affected adjacency lists, which is how the mobility layer (see Mover)
// keeps Neighbors and InRange consistent with current positions.
//
// Neighbor slices returned by Neighbors are owned by the field and remain
// valid only until the next MoveNode call; callers that must survive a move
// (the MAC's in-flight transmissions) record the node IDs they care about
// instead of holding the slice.
//
// MoveNode is the only writer of neighbor lists, so while Moves reads the
// same count every list is exactly as it was, in content and in order.
type Field struct {
	area      geom.Rect
	rng       float64 // radio range, meters
	positions []geom.Point
	neighbors [][]NodeID
	moves     uint64 // MoveNode calls so far

	// Persistent uniform grid (cell side = radio range) so a move only
	// rescans the 3×3 cell neighborhood instead of rebuilding the field.
	cols, rows int
	cells      [][]NodeID // bucket per cell, node IDs ascending
	cellIdx    []int      // node -> cell index

	// MoveNode scratch, reused across calls so moves do not allocate in
	// steady state.
	oldNbr  []NodeID
	nbrMark []bool
}

// Config describes a field to generate.
type Config struct {
	// Area is the deployment region. The paper uses a 200 m square.
	Area geom.Rect
	// Nodes is the number of sensor nodes to place.
	Nodes int
	// Range is the radio range in meters (40 m in the paper).
	Range float64
}

// Validate reports the first problem with the configuration, if any.
func (c Config) Validate() error {
	switch {
	case !c.Area.Valid():
		return fmt.Errorf("topology: invalid area %+v", c.Area)
	case c.Nodes < 2:
		return fmt.Errorf("topology: need at least 2 nodes, got %d", c.Nodes)
	case c.Range <= 0:
		return fmt.Errorf("topology: non-positive radio range %v", c.Range)
	default:
		return nil
	}
}

// Generate places cfg.Nodes nodes uniformly at random in cfg.Area using rng
// and returns the resulting field.
func Generate(cfg Config, rng *rand.Rand) (*Field, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pts := make([]geom.Point, cfg.Nodes)
	for i := range pts {
		pts[i] = cfg.Area.Sample(rng)
	}
	return FromPositions(cfg.Area, cfg.Range, pts)
}

// FromPositions builds a field from explicit positions. Positions outside
// the area are rejected: they indicate a workload-construction bug.
func FromPositions(area geom.Rect, radioRange float64, pts []geom.Point) (*Field, error) {
	if !area.Valid() {
		return nil, fmt.Errorf("topology: invalid area %+v", area)
	}
	if radioRange <= 0 {
		return nil, fmt.Errorf("topology: non-positive radio range %v", radioRange)
	}
	for i, p := range pts {
		if !area.Contains(p) {
			return nil, fmt.Errorf("topology: node %d at %v outside area %+v", i, p, area)
		}
	}
	f := &Field{
		area:      area,
		rng:       radioRange,
		positions: append([]geom.Point(nil), pts...),
	}
	f.buildNeighbors()
	return f, nil
}

// buildNeighbors computes the unit-disk adjacency lists with a uniform grid
// so generation stays near-linear in node count. The grid is kept on the
// field afterwards so MoveNode can update adjacency incrementally.
func (f *Field) buildNeighbors() {
	n := len(f.positions)
	f.neighbors = make([][]NodeID, n)
	f.cols = int(f.area.Width()/f.rng) + 1
	f.rows = int(f.area.Height()/f.rng) + 1
	f.cells = make([][]NodeID, f.cols*f.rows)
	f.cellIdx = make([]int, n)
	if n == 0 {
		return
	}
	for i, p := range f.positions {
		c := f.cellAt(p)
		f.cellIdx[i] = c
		f.cells[c] = append(f.cells[c], NodeID(i))
	}
	for i := range f.positions {
		f.neighbors[i] = f.scanNeighbors(NodeID(i), f.neighbors[i])
	}
}

// cellAt maps a position to its grid cell index, clamping the boundary row
// and column so points on the area's max edge stay inside the grid.
func (f *Field) cellAt(p geom.Point) int {
	cx := int((p.X - f.area.MinX) / f.rng)
	cy := int((p.Y - f.area.MinY) / f.rng)
	if cx >= f.cols {
		cx = f.cols - 1
	}
	if cy >= f.rows {
		cy = f.rows - 1
	}
	return cy*f.cols + cx
}

// scanNeighbors recomputes node id's neighbor list into dst (reusing its
// capacity) by scanning the 3×3 cell neighborhood. Buckets hold node IDs in
// ascending order and are scanned row-major, so the list order is a pure
// function of positions — identical for a rebuilt and an incrementally
// maintained field.
func (f *Field) scanNeighbors(id NodeID, dst []NodeID) []NodeID {
	dst = dst[:0]
	p := f.positions[id]
	c := f.cellIdx[id]
	cx, cy := c%f.cols, c/f.cols
	r2 := f.rng * f.rng
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			nx, ny := cx+dx, cy+dy
			if nx < 0 || ny < 0 || nx >= f.cols || ny >= f.rows {
				continue
			}
			for _, j := range f.cells[ny*f.cols+nx] {
				if j == id {
					continue
				}
				if p.Dist2(f.positions[j]) <= r2 {
					dst = append(dst, j)
				}
			}
		}
	}
	return dst
}

// MoveNode relocates node id to p — clamped to the deployment area — and
// incrementally rebuilds every adjacency list the move touches. It returns
// the number of directed links gained plus lost (0 when the move changed no
// adjacency). The moved node's own list is recomputed in canonical grid-scan
// order; lists of nodes that gained id append it, so their order reflects
// link history — still fully deterministic for a fixed move sequence.
func (f *Field) MoveNode(id NodeID, p geom.Point) int {
	f.moves++
	p = f.area.Clamp(p)
	f.positions[id] = p
	if c := f.cellAt(p); c != f.cellIdx[id] {
		f.cells[f.cellIdx[id]] = removeID(f.cells[f.cellIdx[id]], id)
		f.cells[c] = insertID(f.cells[c], id)
		f.cellIdx[id] = c
	}

	f.oldNbr = append(f.oldNbr[:0], f.neighbors[id]...)
	f.neighbors[id] = f.scanNeighbors(id, f.neighbors[id])

	if f.nbrMark == nil {
		f.nbrMark = make([]bool, len(f.positions))
	}
	for _, nb := range f.oldNbr {
		f.nbrMark[nb] = true
	}
	changed := 0
	for _, nb := range f.neighbors[id] {
		if f.nbrMark[nb] {
			f.nbrMark[nb] = false // kept link
			continue
		}
		// Gained link: adjacency is symmetric in a unit disk.
		f.neighbors[nb] = append(f.neighbors[nb], id)
		changed += 2
	}
	for _, nb := range f.oldNbr {
		if !f.nbrMark[nb] {
			continue
		}
		f.nbrMark[nb] = false
		f.neighbors[nb] = removeID(f.neighbors[nb], id)
		changed += 2
	}
	return changed
}

// insertID adds id to a sorted bucket, keeping ascending order so bucket
// scans stay canonical after any move sequence.
func insertID(s []NodeID, id NodeID) []NodeID {
	s = append(s, id)
	i := len(s) - 1
	for i > 0 && s[i-1] > id {
		s[i] = s[i-1]
		i--
	}
	s[i] = id
	return s
}

// removeID deletes id from s preserving the order of the rest.
func removeID(s []NodeID, id NodeID) []NodeID {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Moves returns how many MoveNode calls the field has taken. It counts every
// call, not only those that gain or lose a link: rescanning the moved node's
// list can reorder it with no link changed.
func (f *Field) Moves() uint64 { return f.moves }

// Len returns the number of nodes in the field.
func (f *Field) Len() int { return len(f.positions) }

// Area returns the deployment region.
func (f *Field) Area() geom.Rect { return f.area }

// Position returns the location of node id.
func (f *Field) Position(id NodeID) geom.Point { return f.positions[id] }

// Neighbors returns the nodes within radio range of id. The returned slice
// is owned by the field; callers must not modify it, and it is valid only
// until the next MoveNode call.
func (f *Field) Neighbors(id NodeID) []NodeID { return f.neighbors[id] }

// InRange reports whether a and b can hear each other.
func (f *Field) InRange(a, b NodeID) bool {
	return a != b && f.positions[a].Dist2(f.positions[b]) <= f.rng*f.rng
}

// MeanDegree returns the average neighbor count — the paper's "radio
// density" axis.
func (f *Field) MeanDegree() float64 {
	if len(f.neighbors) == 0 {
		return 0
	}
	total := 0
	for _, ns := range f.neighbors {
		total += len(ns)
	}
	return float64(total) / float64(len(f.neighbors))
}

// NodesIn returns the IDs of nodes inside region, in ID order.
func (f *Field) NodesIn(region geom.Rect) []NodeID {
	var ids []NodeID
	for i, p := range f.positions {
		if region.Contains(p) {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// Connected reports whether every node in ids can reach every other via
// multi-hop paths through the whole field. It is used by workload generation
// to discard partitioned placements (a disconnected source would make the
// delivery-ratio metric meaningless for reasons unrelated to the protocols).
func (f *Field) Connected(ids []NodeID) bool {
	if len(ids) <= 1 {
		return true
	}
	comp := f.components()
	want := comp[ids[0]]
	for _, id := range ids[1:] {
		if comp[id] != want {
			return false
		}
	}
	return true
}

// components labels each node with its connected-component index.
func (f *Field) components() []int {
	comp := make([]int, len(f.positions))
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var stack []NodeID
	for start := range f.positions {
		if comp[start] != -1 {
			continue
		}
		stack = append(stack[:0], NodeID(start))
		comp[start] = next
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range f.neighbors[v] {
				if comp[w] == -1 {
					comp[w] = next
					stack = append(stack, w)
				}
			}
		}
		next++
	}
	return comp
}
