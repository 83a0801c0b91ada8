package core

import (
	"testing"
	"time"

	"repro/internal/diffusion"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestDefaultLinkCostIsHops pins the exploratory cost: with fixed
// transmission power, E accumulates one unit per hop.
func TestDefaultLinkCostIsHops(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 0}, {X: 90, Y: 0},
	}
	f, err := topology.FromPositions(geom.Square(0, 0, 1000), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	kernel := sim.NewKernel(1)
	net := mac.New(kernel, f, mac.Params{})
	rt, err := diffusion.New(kernel, net, f, diffusion.DefaultParams(), Strategy{},
		diffusion.Roles{Sinks: []topology.NodeID{3}, Sources: []topology.NodeID{0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	kernel.Run(10 * time.Second)

	cost, ok := rt.BestEntryCost(3, 0)
	if !ok {
		t.Fatal("sink has no exploratory entry")
	}
	if cost != 3 {
		t.Fatalf("sink's best E = %d, want 3 hops", cost)
	}
}
