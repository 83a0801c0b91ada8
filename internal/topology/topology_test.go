package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func paperArea() geom.Rect { return geom.Square(0, 0, 200) }

func TestGenerateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		cfg  Config
	}{
		{"bad area", Config{Area: geom.Rect{}, Nodes: 10, Range: 40}},
		{"too few nodes", Config{Area: paperArea(), Nodes: 1, Range: 40}},
		{"bad range", Config{Area: paperArea(), Nodes: 10, Range: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Generate(tt.cfg, rng); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestGeneratePlacesAllNodesInside(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f, err := Generate(Config{Area: paperArea(), Nodes: 150, Range: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 150 {
		t.Fatalf("Len = %d, want 150", f.Len())
	}
	for i := 0; i < f.Len(); i++ {
		if !f.Area().Contains(f.Position(NodeID(i))) {
			t.Fatalf("node %d at %v outside area", i, f.Position(NodeID(i)))
		}
	}
}

func TestNeighborsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f, err := Generate(Config{Area: paperArea(), Nodes: 120, Range: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.Len(); i++ {
		want := map[NodeID]bool{}
		for j := 0; j < f.Len(); j++ {
			if i != j && f.Position(NodeID(i)).Dist(f.Position(NodeID(j))) <= 40 {
				want[NodeID(j)] = true
			}
		}
		got := f.Neighbors(NodeID(i))
		if len(got) != len(want) {
			t.Fatalf("node %d: %d neighbors, want %d", i, len(got), len(want))
		}
		for _, n := range got {
			if !want[n] {
				t.Fatalf("node %d: spurious neighbor %d", i, n)
			}
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f, err := Generate(Config{Area: paperArea(), Nodes: 200, Range: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	adj := make([]map[NodeID]bool, f.Len())
	for i := 0; i < f.Len(); i++ {
		adj[i] = map[NodeID]bool{}
		for _, n := range f.Neighbors(NodeID(i)) {
			adj[i][n] = true
		}
	}
	for i := 0; i < f.Len(); i++ {
		for n := range adj[i] {
			if !adj[n][NodeID(i)] {
				t.Fatalf("asymmetric link %d -> %d", i, n)
			}
		}
	}
}

// The paper's density axis: 50 nodes should average ~6 neighbors and 350
// nodes ~43 in a 200 m field with 40 m range. Check the analytic expectation
// within loose bounds (boundary effects reduce the mean).
func TestMeanDegreeMatchesPaperDensityAxis(t *testing.T) {
	tests := []struct {
		nodes   int
		wantLo  float64
		wantHi  float64
		approxE float64
	}{
		{50, 3.5, 7.5, 6.2},
		{350, 30, 46, 43.8},
	}
	for _, tt := range tests {
		var sum float64
		const fields = 10
		for s := int64(0); s < fields; s++ {
			rng := rand.New(rand.NewSource(s))
			f, err := Generate(Config{Area: paperArea(), Nodes: tt.nodes, Range: 40}, rng)
			if err != nil {
				t.Fatal(err)
			}
			sum += f.MeanDegree()
		}
		mean := sum / fields
		if mean < tt.wantLo || mean > tt.wantHi {
			t.Errorf("nodes=%d mean degree %.1f outside [%v,%v] (analytic %.1f)",
				tt.nodes, mean, tt.wantLo, tt.wantHi, tt.approxE)
		}
	}
}

func TestInRange(t *testing.T) {
	f, err := FromPositions(paperArea(), 40, []geom.Point{{X: 0, Y: 0}, {X: 39, Y: 0}, {X: 41, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !f.InRange(0, 1) {
		t.Error("nodes 0,1 at 39m should be in range")
	}
	if f.InRange(0, 2) {
		t.Error("nodes 0,2 at 41m should be out of range")
	}
	if f.InRange(1, 1) {
		t.Error("a node is not in range of itself")
	}
}

func TestFromPositionsRejectsOutside(t *testing.T) {
	_, err := FromPositions(paperArea(), 40, []geom.Point{{X: -1, Y: 0}})
	if err == nil {
		t.Fatal("expected error for out-of-area position")
	}
}

func TestNodesIn(t *testing.T) {
	f, err := FromPositions(paperArea(), 40, []geom.Point{
		{X: 10, Y: 10}, {X: 150, Y: 150}, {X: 20, Y: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := f.NodesIn(geom.Square(0, 0, 80))
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("NodesIn = %v, want [0 2]", got)
	}
}

func TestConnected(t *testing.T) {
	// Two clusters far apart.
	f, err := FromPositions(paperArea(), 40, []geom.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, // cluster A
		{X: 150, Y: 150}, {X: 170, Y: 150}, // cluster B
	})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Connected([]NodeID{0, 1}) {
		t.Error("cluster A should be connected")
	}
	if !f.Connected([]NodeID{2, 3}) {
		t.Error("cluster B should be connected")
	}
	if f.Connected([]NodeID{0, 2}) {
		t.Error("clusters should not be connected")
	}
	if !f.Connected([]NodeID{0}) {
		t.Error("singleton trivially connected")
	}
}

// Property: generated fields always produce symmetric adjacency consistent
// with the range predicate, for random node counts and ranges.
func TestPropertyAdjacencyConsistent(t *testing.T) {
	f := func(seed int64, nRaw, rRaw uint8) bool {
		n := int(nRaw%60) + 2
		r := float64(rRaw%80) + 5
		rng := rand.New(rand.NewSource(seed))
		fld, err := Generate(Config{Area: paperArea(), Nodes: n, Range: r}, rng)
		if err != nil {
			return false
		}
		for i := 0; i < fld.Len(); i++ {
			seen := map[NodeID]bool{}
			for _, nb := range fld.Neighbors(NodeID(i)) {
				if seen[nb] {
					return false // duplicate neighbor
				}
				seen[nb] = true
				if !fld.InRange(NodeID(i), nb) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanDegreeEmptyNeighborLists(t *testing.T) {
	f, err := FromPositions(paperArea(), 1, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if f.MeanDegree() != 0 {
		t.Fatalf("MeanDegree = %v, want 0", f.MeanDegree())
	}
}

func TestDeterministicGeneration(t *testing.T) {
	gen := func() *Field {
		rng := rand.New(rand.NewSource(99))
		f, err := Generate(Config{Area: paperArea(), Nodes: 80, Range: 40}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := gen(), gen()
	for i := 0; i < a.Len(); i++ {
		pa, pb := a.Position(NodeID(i)), b.Position(NodeID(i))
		if math.Abs(pa.X-pb.X) > 0 || math.Abs(pa.Y-pb.Y) > 0 {
			t.Fatalf("node %d position differs: %v vs %v", i, pa, pb)
		}
	}
}
