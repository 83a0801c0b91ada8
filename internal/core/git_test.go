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

// TestGreedyAttachesAtClosestTreePoint reproduces the paper's Figure 3
// mechanism end to end on a hand-built topology where the greedy and
// shortest-path decisions differ observably.
//
// Spine (the existing tree after source 1 connects):
//
//	S1(0,60) - A(30,60) - B(60,60) - C(90,60) - D(120,60) - Sink(150,60)
//
// Source 2 at (60,22) is adjacent to spine node B (cost-to-tree C = 1) but
// also has a disjoint 4-hop corridor to the sink:
//
//	S2(60,22) - X(92,14) - Y(124,14) - Z(150,22) - Sink
//
// The direct energy cost E(S2→sink) is 4 either way; the incremental cost
// message that S1 emits is refined down to C = 1 as it passes B, so the
// sink must reinforce toward the tree and reinforcement must peel off at B
// straight to S2. The corridor must end up with no data gradients at all.
func TestGreedyAttachesAtClosestTreePoint(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 60},   // 0 S1
		{X: 30, Y: 60},  // 1 A
		{X: 60, Y: 60},  // 2 B
		{X: 90, Y: 60},  // 3 C
		{X: 120, Y: 60}, // 4 D
		{X: 150, Y: 60}, // 5 Sink
		{X: 60, Y: 22},  // 6 S2
		{X: 92, Y: 14},  // 7 X
		{X: 124, Y: 14}, // 8 Y
		{X: 150, Y: 22}, // 9 Z
	}
	f, err := topology.FromPositions(geom.Square(0, 0, 1000), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the only spine-corridor contacts are S2-B and Z-Sink.
	if !f.InRange(6, 2) || !f.InRange(9, 5) {
		t.Fatal("topology wiring broken")
	}
	if f.InRange(7, 3) || f.InRange(8, 4) {
		t.Fatal("corridor accidentally touches the spine")
	}

	kernel := sim.NewKernel(3)
	net := mac.New(kernel, f, mac.Params{})
	rt, err := diffusion.New(kernel, net, f, diffusion.DefaultParams(), Strategy{},
		diffusion.Roles{Sinks: []topology.NodeID{5}, Sources: []topology.NodeID{0, 6}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	// Two exploratory rounds so the incremental-cost mechanism has an
	// existing tree to advertise (round 1 may build lowest-energy paths;
	// round 2 must produce the GIT and truncation must prune the rest).
	kernel.Run(80 * time.Second)

	if !rt.KnowsInterest(6, 0) {
		t.Fatal("source 2 has no interest state")
	}
	grads := rt.DataGradients(6, 0)
	if len(grads) != 1 || grads[0] != 2 {
		t.Fatalf("source 2 data gradients = %v, want [2] (attach at B)", grads)
	}
	// The corridor carries no data.
	for _, id := range []topology.NodeID{7, 8, 9} {
		if g := rt.DataGradients(id, 0); len(g) != 0 {
			t.Fatalf("corridor node %d has data gradients %v; the greedy tree must not use it", id, g)
		}
	}
	// The spine carries the merged stream.
	for _, hop := range []struct{ node, next topology.NodeID }{
		{2, 3}, {3, 4}, {4, 5},
	} {
		g := rt.DataGradients(hop.node, 0)
		if len(g) != 1 || g[0] != hop.next {
			t.Fatalf("spine node %d gradients = %v, want [%d]", hop.node, g, hop.next)
		}
	}
}
