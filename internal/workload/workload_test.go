package workload

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/topology"
)

func denseField(t *testing.T, seed int64, nodes int) *topology.Field {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f, err := topology.Generate(topology.Config{
		Area: geom.Square(0, 0, 200), Nodes: nodes, Range: 40,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func paperCfg() Config {
	return Config{Sources: 5, Sinks: 1, Placement: PlaceCorner}
}

func TestValidate(t *testing.T) {
	if err := paperCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Sources: 0, Sinks: 1, Placement: PlaceCorner},
		{Sources: 1, Sinks: 0, Placement: PlaceCorner},
		{Sources: 1, Sinks: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestPlacementString(t *testing.T) {
	if PlaceCorner.String() != "corner" || PlaceRandom.String() != "random" {
		t.Fatal("placement names wrong")
	}
	if Placement(9).String() != "placement(9)" {
		t.Fatal("unknown placement formatting")
	}
}

func TestCornerPlacementRegions(t *testing.T) {
	f := denseField(t, 1, 300)
	rng := rand.New(rand.NewSource(2))
	a, err := Place(f, paperCfg(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sources) != 5 || len(a.Sinks) != 1 {
		t.Fatalf("assignment %+v", a)
	}
	srcRegion := geom.Square(0, 0, SourceRegionSide)
	for _, s := range a.Sources {
		if !srcRegion.Contains(f.Position(s)) {
			t.Errorf("source %d at %v outside the 80m corner", s, f.Position(s))
		}
	}
	sinkRegion := geom.Rect{MinX: 200 - SinkRegionSide, MinY: 200 - SinkRegionSide, MaxX: 200, MaxY: 200}
	if !sinkRegion.Contains(f.Position(a.Sinks[0])) {
		t.Errorf("sink at %v outside the 36m top-right corner", f.Position(a.Sinks[0]))
	}
}

func TestNoOverlapBetweenRoles(t *testing.T) {
	f := denseField(t, 3, 300)
	rng := rand.New(rand.NewSource(4))
	cfg := paperCfg()
	cfg.Sinks = 5
	cfg.Sources = 14
	a, err := Place(f, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[topology.NodeID]bool{}
	for _, id := range append(append([]topology.NodeID(nil), a.Sinks...), a.Sources...) {
		if seen[id] {
			t.Fatalf("node %d assigned twice", id)
		}
		seen[id] = true
	}
}

func TestMultiSinkFirstInCorner(t *testing.T) {
	f := denseField(t, 5, 350)
	rng := rand.New(rand.NewSource(6))
	cfg := paperCfg()
	cfg.Sinks = 5
	a, err := Place(f, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	sinkRegion := geom.Rect{MinX: 200 - SinkRegionSide, MinY: 200 - SinkRegionSide, MaxX: 200, MaxY: 200}
	if !sinkRegion.Contains(f.Position(a.Sinks[0])) {
		t.Error("first sink must be in the top-right corner")
	}
}

func TestRandomPlacementUsesWholeField(t *testing.T) {
	f := denseField(t, 7, 350)
	cfg := paperCfg()
	cfg.Placement = PlaceRandom
	cfg.Sources = 14
	// Over several draws, at least one source should fall outside the 80m
	// corner (probability of all-in-corner is astronomically small).
	rng := rand.New(rand.NewSource(8))
	outside := false
	srcRegion := geom.Square(0, 0, SourceRegionSide)
	for trial := 0; trial < 5 && !outside; trial++ {
		a, err := Place(f, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range a.Sources {
			if !srcRegion.Contains(f.Position(s)) {
				outside = true
			}
		}
	}
	if !outside {
		t.Fatal("random placement never left the corner region")
	}
}

func TestPlaceFailsWhenRegionEmpty(t *testing.T) {
	// All nodes outside both corner regions.
	pts := []geom.Point{{X: 100, Y: 100}, {X: 110, Y: 100}, {X: 120, Y: 100}}
	f, err := topology.FromPositions(geom.Square(0, 0, 200), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := Place(f, paperCfg(), rng); err == nil {
		t.Fatal("expected error for empty sink region")
	}
}

func TestPlaceFailsWhenTooFewSources(t *testing.T) {
	// Only 2 nodes in the source corner but 5 requested.
	pts := []geom.Point{
		{X: 10, Y: 10}, {X: 20, Y: 10}, // corner
		{X: 190, Y: 190},                                     // sink corner
		{X: 100, Y: 100}, {X: 130, Y: 130}, {X: 160, Y: 160}, // middle relays
	}
	f, err := topology.FromPositions(geom.Square(0, 0, 200), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := Place(f, paperCfg(), rng); err == nil {
		t.Fatal("expected error for too few corner sources")
	}
}

func TestPlaceFailsWhenDisconnected(t *testing.T) {
	// Corner cluster and sink corner with no relays in between.
	pts := []geom.Point{
		{X: 10, Y: 10}, {X: 20, Y: 10}, {X: 10, Y: 20}, {X: 20, Y: 20}, {X: 30, Y: 10},
		{X: 190, Y: 190},
	}
	f, err := topology.FromPositions(geom.Square(0, 0, 200), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := Place(f, paperCfg(), rng); err == nil {
		t.Fatal("expected error for a partitioned workload")
	}
}

func TestPlaceDeterministic(t *testing.T) {
	f := denseField(t, 9, 200)
	a1, err := Place(f, paperCfg(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Place(f, paperCfg(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Sources {
		if a1.Sources[i] != a2.Sources[i] {
			t.Fatal("placement not deterministic")
		}
	}
}
