package topology

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/geom"
)

// rebuiltField reconstructs a field from f's current positions; its neighbor
// lists are the canonical grid-scan adjacency for those positions.
func rebuiltField(t *testing.T, f *Field) *Field {
	t.Helper()
	pts := make([]geom.Point, f.Len())
	for i := range pts {
		pts[i] = f.Position(NodeID(i))
	}
	nf, err := FromPositions(f.Area(), f.rng, pts)
	if err != nil {
		t.Fatal(err)
	}
	return nf
}

// sortedNeighbors returns id's neighbor list as a sorted copy (incremental
// maintenance appends gained links, so only the set is comparable).
func sortedNeighbors(f *Field, id NodeID) []NodeID {
	s := append([]NodeID(nil), f.Neighbors(id)...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func TestMoveNodeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f, err := Generate(Config{Area: paperArea(), Nodes: 90, Range: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for move := 0; move < 500; move++ {
		id := NodeID(rng.Intn(f.Len()))
		f.MoveNode(id, f.Area().Sample(rng))
		if move%50 != 0 {
			continue
		}
		want := rebuiltField(t, f)
		for i := 0; i < f.Len(); i++ {
			got, exp := sortedNeighbors(f, NodeID(i)), sortedNeighbors(want, NodeID(i))
			if len(got) != len(exp) {
				t.Fatalf("move %d node %d: %d neighbors, want %d", move, i, len(got), len(exp))
			}
			for k := range got {
				if got[k] != exp[k] {
					t.Fatalf("move %d node %d: neighbors %v, want %v", move, i, got, exp)
				}
			}
		}
	}
}

func TestMoveNodeReportsLinkDelta(t *testing.T) {
	f, err := FromPositions(paperArea(), 40, []geom.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 100, Y: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Moving node 2 next to the pair gains two symmetric links (4 directed).
	if got := f.MoveNode(2, geom.Point{X: 15, Y: 10}); got != 4 {
		t.Fatalf("gain delta = %d, want 4", got)
	}
	// Moving it far away loses them again.
	if got := f.MoveNode(2, geom.Point{X: 190, Y: 190}); got != 4 {
		t.Fatalf("loss delta = %d, want 4", got)
	}
	// A move that changes nothing reports zero.
	if got := f.MoveNode(2, geom.Point{X: 189, Y: 189}); got != 0 {
		t.Fatalf("no-op delta = %d, want 0", got)
	}
}

func TestMoveNodeClampsToArea(t *testing.T) {
	f, err := FromPositions(paperArea(), 40, []geom.Point{{X: 5, Y: 5}, {X: 10, Y: 10}})
	if err != nil {
		t.Fatal(err)
	}
	f.MoveNode(0, geom.Point{X: -50, Y: 900})
	got := f.Position(0)
	if got.X != 0 || got.Y != 200 {
		t.Fatalf("clamped position = %v, want (0, 200)", got)
	}
	if !f.Area().Contains(got) {
		t.Fatalf("moved node left the area: %v", got)
	}
}

func TestMoveNodeKeepsStaticOrderForUnaffectedNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f, err := Generate(Config{Area: paperArea(), Nodes: 60, Range: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]NodeID, f.Len())
	for i := range before {
		before[i] = append([]NodeID(nil), f.Neighbors(NodeID(i))...)
	}
	// A move entirely inside one far corner must not disturb lists of nodes
	// out of interaction range.
	f.MoveNode(0, geom.Point{X: 1, Y: 1})
	far := f.Position(0)
	for i := 1; i < f.Len(); i++ {
		if f.Position(NodeID(i)).Dist(far) < 3*f.rng {
			continue
		}
		got := f.Neighbors(NodeID(i))
		if len(got) != len(before[i]) {
			t.Fatalf("far node %d list length changed", i)
		}
		for k := range got {
			if got[k] != before[i][k] {
				t.Fatalf("far node %d list order changed: %v -> %v", i, before[i], got)
			}
		}
	}
}

// --- mobility models --------------------------------------------------------

func testField(t *testing.T, nodes int, seed int64) *Field {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f, err := Generate(Config{Area: paperArea(), Nodes: nodes, Range: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMobilityConfigZeroValueInert(t *testing.T) {
	var cfg MobilityConfig
	if cfg.Enabled() {
		t.Fatal("zero MobilityConfig should be disabled")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero MobilityConfig should validate: %v", err)
	}
}

func TestMobilityConfigValidate(t *testing.T) {
	bad := []MobilityConfig{
		{Model: MobilityWalk},                                                   // no epoch
		{Model: MobilityWalk, Epoch: time.Second},                               // no step
		{Model: MobilityWaypoint, Epoch: time.Second},                           // no speed
		{Model: MobilityWaypoint, Epoch: time.Second, SpeedMax: 2, SpeedMin: 3}, // inverted range
		{Model: MobilityModel(9), Epoch: time.Second},                           // unknown model
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, cfg)
		}
	}
	for _, model := range []MobilityModel{MobilityWaypoint, MobilityWalk} {
		if err := DefaultMobilityConfig(model).Validate(); err != nil {
			t.Errorf("default %v config invalid: %v", model, err)
		}
	}
}

func TestParseMobilityModel(t *testing.T) {
	for _, m := range []MobilityModel{MobilityNone, MobilityWaypoint, MobilityWalk} {
		got, err := ParseMobilityModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMobilityModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMobilityModel("teleport"); err == nil {
		t.Error("expected error for unknown model")
	}
}

func TestWalkStaysInAreaAndBoundsStep(t *testing.T) {
	f := testField(t, 50, 21)
	cfg := MobilityConfig{Model: MobilityWalk, Epoch: time.Second, Step: 3}
	m, err := NewMover(f, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	prev := make([]geom.Point, f.Len())
	for e := 0; e < 100; e++ {
		for i := range prev {
			prev[i] = f.Position(NodeID(i))
		}
		m.Advance(time.Duration(e+1)*time.Second, rng)
		for i := 0; i < f.Len(); i++ {
			p := f.Position(NodeID(i))
			if !f.Area().Contains(p) {
				t.Fatalf("epoch %d: node %d left the area: %v", e, i, p)
			}
			if dx := p.X - prev[i].X; dx > 3 || dx < -3 {
				t.Fatalf("epoch %d: node %d x-step %v exceeds bound", e, i, dx)
			}
			if dy := p.Y - prev[i].Y; dy > 3 || dy < -3 {
				t.Fatalf("epoch %d: node %d y-step %v exceeds bound", e, i, dy)
			}
		}
	}
	if m.Epochs() != 100 {
		t.Fatalf("Epochs = %d, want 100", m.Epochs())
	}
}

func TestWaypointSpeedWithinBounds(t *testing.T) {
	f := testField(t, 40, 8)
	cfg := MobilityConfig{
		Model: MobilityWaypoint, Epoch: time.Second,
		SpeedMin: 1, SpeedMax: 4, Pause: 0,
	}
	m, err := NewMover(f, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	prev := make([]geom.Point, f.Len())
	for e := 0; e < 200; e++ {
		for i := range prev {
			prev[i] = f.Position(NodeID(i))
		}
		m.Advance(time.Duration(e+1)*time.Second, rng)
		for i := 0; i < f.Len(); i++ {
			d := f.Position(NodeID(i)).Dist(prev[i])
			if d > 4+1e-9 {
				t.Fatalf("epoch %d: node %d moved %.2f m in one 1 s epoch (max speed 4)", e, i, d)
			}
		}
	}
	elapsed := 200 * time.Second
	if ms := m.MeanSpeed(elapsed); ms <= 0 || ms > 4 {
		t.Fatalf("mean speed %.2f outside (0, 4]", ms)
	}
	if mx := m.MaxSpeed(elapsed); mx <= 0 || mx > 4+1e-9 {
		t.Fatalf("max speed %.2f outside (0, 4]", mx)
	}
}

func TestWaypointPausesAtDestination(t *testing.T) {
	f, err := FromPositions(paperArea(), 40, []geom.Point{{X: 100, Y: 100}, {X: 10, Y: 10}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MobilityConfig{
		Model: MobilityWaypoint, Epoch: time.Second,
		SpeedMin: 400, SpeedMax: 400, // reaches any target in one epoch
		Pause: 10 * time.Second,
	}
	m, err := NewMover(f, cfg, []NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	m.Advance(1*time.Second, rng) // arrives, pause until 11s
	arrived := f.Position(0)
	for e := 2; e <= 10; e++ {
		m.Advance(time.Duration(e)*time.Second, rng)
		if f.Position(0) != arrived {
			t.Fatalf("node moved during pause at epoch %d", e)
		}
	}
	m.Advance(12*time.Second, rng)
	if f.Position(0) == arrived {
		t.Fatal("node should resume after the pause")
	}
}

func TestMoverPinsNodes(t *testing.T) {
	f := testField(t, 30, 6)
	cfg := DefaultMobilityConfig(MobilityWalk)
	m, err := NewMover(f, cfg, []NodeID{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	p3, p7 := f.Position(3), f.Position(7)
	rng := rand.New(rand.NewSource(1))
	for e := 0; e < 50; e++ {
		m.Advance(time.Duration(e+1)*time.Second, rng)
	}
	if f.Position(3) != p3 || f.Position(7) != p7 {
		t.Fatal("pinned nodes moved")
	}
	if m.Mobile() != 28 {
		t.Fatalf("Mobile = %d, want 28", m.Mobile())
	}
	if m.distance[3] != 0 || m.distance[7] != 0 {
		t.Fatal("pinned nodes accumulated distance")
	}
	speeds := m.Speeds(50 * time.Second)
	if speeds[3] != 0 || speeds[7] != 0 {
		t.Fatal("pinned nodes report non-zero speed")
	}
	if speeds[0] <= 0 {
		t.Fatal("mobile node reports zero speed")
	}
}

func TestMoverDeterministic(t *testing.T) {
	run := func(model MobilityModel) []geom.Point {
		f := testField(t, 70, 33)
		var cfg MobilityConfig
		if model == MobilityWaypoint {
			cfg = MobilityConfig{Model: model, Epoch: time.Second, SpeedMin: 1, SpeedMax: 6, Pause: 2 * time.Second}
		} else {
			cfg = MobilityConfig{Model: model, Epoch: time.Second, Step: 2}
		}
		m, err := NewMover(f, cfg, []NodeID{0})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		for e := 0; e < 120; e++ {
			m.Advance(time.Duration(e+1)*time.Second, rng)
		}
		out := make([]geom.Point, f.Len())
		for i := range out {
			out[i] = f.Position(NodeID(i))
		}
		return out
	}
	for _, model := range []MobilityModel{MobilityWalk, MobilityWaypoint} {
		a, b := run(model), run(model)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: node %d diverged: %v vs %v", model, i, a[i], b[i])
			}
		}
	}
}

// --- edge-case fields (satellite) -------------------------------------------

func TestEmptyField(t *testing.T) {
	f, err := FromPositions(paperArea(), 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d, want 0", f.Len())
	}
	if f.MeanDegree() != 0 {
		t.Fatalf("MeanDegree = %v, want 0", f.MeanDegree())
	}
	if !f.Connected(nil) {
		t.Fatal("empty set should be trivially connected")
	}
	if comp := f.components(); len(comp) != 0 {
		t.Fatalf("components = %v, want empty", comp)
	}
}

func TestSingleNodeField(t *testing.T) {
	f, err := FromPositions(paperArea(), 40, []geom.Point{{X: 50, Y: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if f.MeanDegree() != 0 {
		t.Fatalf("MeanDegree = %v, want 0", f.MeanDegree())
	}
	if !f.Connected([]NodeID{0}) {
		t.Fatal("single node should be trivially connected")
	}
	comp := f.components()
	if len(comp) != 1 || comp[0] != 0 {
		t.Fatalf("components = %v, want [0]", comp)
	}
	if len(f.Neighbors(0)) != 0 {
		t.Fatalf("Neighbors = %v, want none", f.Neighbors(0))
	}
}

func TestFullyIsolatedField(t *testing.T) {
	// Four nodes pairwise farther apart than the 40 m range.
	f, err := FromPositions(paperArea(), 40, []geom.Point{
		{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}, {X: 100, Y: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.MeanDegree() != 0 {
		t.Fatalf("MeanDegree = %v, want 0", f.MeanDegree())
	}
	comp := f.components()
	seen := map[int]bool{}
	for i, c := range comp {
		if seen[c] {
			t.Fatalf("isolated nodes share a component: %v", comp)
		}
		seen[c] = true
		if !f.Connected([]NodeID{NodeID(i)}) {
			t.Fatalf("singleton %d should be connected", i)
		}
	}
	if f.Connected([]NodeID{0, 1}) || f.Connected([]NodeID{0, 1, 2, 3}) {
		t.Fatal("isolated nodes must not report connected")
	}
}
