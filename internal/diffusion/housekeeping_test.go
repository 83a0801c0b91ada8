package diffusion

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topology"
)

// passes counts one node's queued truncation and repair passes and records
// when the next of each fires.
type passes struct {
	trunc, repair     int
	truncAt, repairAt time.Duration
}

// pendingPasses reads every node's queued housekeeping passes off the
// kernel's queue.
func pendingPasses(k *sim.Kernel) map[*node]passes {
	out := make(map[*node]passes)
	for _, ev := range k.PendingEvents() {
		t, ok := ev.Runner.(*nodeTimer)
		if !ok {
			continue
		}
		p := out[t.n]
		switch t.kind {
		case tkTruncation:
			p.trunc++
			p.truncAt = ev.At
		case tkRepair:
			p.repair++
			p.repairAt = ev.At
		default:
			continue
		}
		out[t.n] = p
	}
	return out
}

// housekeepingCensus counts, over the nodes checked, those that could act
// in a pass, so a test can tell its run exercised the rules.
type housekeepingCensus struct {
	live, windowed, offWindowed int
}

// checkHousekeeping asserts the arming invariants at every node: at most one
// pending pass of each kind, the armed flags matching the queue, a repair
// pass pending wherever the node is a sink or holds a live data gradient,
// and a truncation pass pending wherever a window holds an aggregate.
func checkHousekeeping(t *testing.T, rt *Runtime, c *housekeepingCensus) {
	t.Helper()
	queued := pendingPasses(rt.kernel)
	for i := range rt.nodes {
		n := &rt.nodes[i]
		p := queued[n]
		if p.trunc > 1 || p.repair > 1 {
			t.Fatalf("t=%v node %d: %d truncation and %d repair passes pending, want at most one each",
				rt.kernel.Now(), n.id, p.trunc, p.repair)
		}
		if (p.trunc == 1) != n.truncArmed || (p.repair == 1) != n.repairArmed {
			t.Fatalf("t=%v node %d: armed flags (trunc %v, repair %v) disagree with the queue (%d, %d)",
				rt.kernel.Now(), n.id, n.truncArmed, n.repairArmed, p.trunc, p.repair)
		}
		live, windowed := n.isSink, false
		for _, e := range n.interests.es {
			live = live || n.hasDataGradient(e.val)
			windowed = windowed || len(e.val.window) > 0
		}
		if live && p.repair == 0 {
			t.Fatalf("t=%v node %d: on the tree with no repair pass pending", rt.kernel.Now(), n.id)
		}
		if windowed && p.trunc == 0 {
			t.Fatalf("t=%v node %d: window holds aggregates with no truncation pass pending",
				rt.kernel.Now(), n.id)
		}
		if live && !n.isSink {
			c.live++
		}
		if windowed {
			c.windowed++
			if !n.on() {
				c.offWindowed++
			}
		}
	}
}

func TestNextTickGrid(t *testing.T) {
	const phase, period = 1500 * time.Millisecond, 2 * time.Second
	for _, c := range []struct{ now, want time.Duration }{
		{0, phase},
		{phase - 1, phase},
		{phase, phase + period}, // exactly on the grid: the pass due now has fired
		{phase + 1, phase + period},
		{phase + period - 1, phase + period},
		{phase + 3*period, phase + 4*period},
	} {
		if got := nextTick(phase, period, c.now); got != c.want {
			t.Errorf("nextTick(now=%v) = %v, want %v", c.now, got, c.want)
		}
	}
}

// tPoints is a three-node line, source(0) - relay(1) - sink(2), with node 3
// beside the relay and out of range of both ends, so it hears floods but
// can never join the tree.
func tPoints() []geom.Point {
	return []geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 0}, {X: 30, Y: 30}}
}

func startT(t *testing.T) (*sim.Kernel, *Runtime) {
	t.Helper()
	k, net, f := testNet(t, 1, tPoints())
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{2},
		Sources: []topology.NodeID{0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	return k, rt
}

// A pass armed on demand lands on the node's own grid: on the phase itself
// before it, and one period on when armed exactly on a grid instant.
func TestOnDemandPassesKeepTheGrid(t *testing.T) {
	k, rt := startT(t)
	idle := rt.Node(3)
	tn := rt.params.NegReinforceWindow

	idle.armRepair()
	if got := pendingPasses(k)[idle]; got.repair != 1 || got.repairAt != idle.repairPhase {
		t.Fatalf("armed before the phase: %d repair passes at %v, want 1 at the phase %v",
			got.repair, got.repairAt, idle.repairPhase)
	}

	onGrid := idle.truncPhase + tn
	k.Run(onGrid)
	if k.Now() != onGrid || idle.truncArmed {
		t.Fatalf("setup: now %v (want %v), truncation armed %v", k.Now(), onGrid, idle.truncArmed)
	}
	idle.armTruncation()
	if got := pendingPasses(k)[idle]; got.trunc != 1 || got.truncAt != onGrid+tn {
		t.Fatalf("armed on grid instant %v: %d truncation passes at %v, want 1 at %v",
			onGrid, got.trunc, got.truncAt, onGrid+tn)
	}
}

// An off-tree node that never holds an aggregate never queues a repair or
// truncation pass; the relay and the sink beside it keep their repair pass.
func TestIdleNodeHoldsNoPasses(t *testing.T) {
	k, rt := startT(t)
	k.Run(30 * time.Second)
	if !rt.KnowsInterest(3, 0) {
		t.Fatal("node 3 never heard the interest: the test would pass vacuously")
	}
	queued := pendingPasses(k)
	idle := rt.Node(3)
	if p := queued[idle]; p.trunc != 0 || p.repair != 0 || idle.truncArmed || idle.repairArmed {
		t.Fatalf("idle node holds %d truncation and %d repair passes (armed %v, %v)",
			p.trunc, p.repair, idle.truncArmed, idle.repairArmed)
	}
	for _, id := range []topology.NodeID{1, 2} {
		if queued[rt.Node(id)].repair != 1 {
			t.Fatalf("node %d on the tree holds %d repair passes, want 1", id, queued[rt.Node(id)].repair)
		}
	}
}

// A node switched off keeps the aggregates in its window, which no pass
// reads while it is off, and keeps a truncation pass pending for them.
func TestOffNodeKeepsWindowAndTruncationPass(t *testing.T) {
	k, rt, _ := startLine(t, 2)
	relay := rt.Node(1)
	windowLen := func() int {
		if st := relay.interests.get(0); st != nil {
			return len(st.window)
		}
		return 0
	}
	for windowLen() == 0 {
		if !k.Step() || k.Now() > 10*time.Second {
			t.Fatal("no aggregate reached the relay")
		}
	}
	want := windowLen()
	rt.net.SetOn(1, false)
	k.Run(k.Now() + 3*rt.params.NegReinforceWindow)
	if got := windowLen(); got != want {
		t.Fatalf("off relay's window holds %d aggregates, want the %d it had", got, want)
	}
	if p := pendingPasses(k)[relay]; p.trunc != 1 || !relay.truncArmed {
		t.Fatalf("off relay holds %d truncation passes (armed %v), want 1", p.trunc, relay.truncArmed)
	}
}

// An interest refresh extends a data gradient even after it expired, as
// long as prunePass has not compacted it: the interest puts the node back
// on the tree, so it must re-arm the repair pass that lapsed meanwhile.
func TestInterestRevivesExpiredDataGradient(t *testing.T) {
	k, rt, _ := startLine(t, 2)
	relay := rt.Node(1)
	// Just past the 10 s interest flood; the first prune pass is at 20 s
	// and the next flood at 15 s.
	k.Run(10*time.Second + 200*time.Millisecond)
	st := relay.interests.get(0)
	if st == nil || !relay.hasDataGradient(st) {
		t.Fatal("tree did not form through the relay")
	}
	for i := range st.grads.es {
		if g := &st.grads.es[i].val; g.kind == gradData {
			g.expires = k.Now()
		}
	}
	for relay.repairArmed {
		if !k.Step() {
			t.Fatal("queue drained")
		}
	}
	if k.Now() >= 15*time.Second {
		t.Fatalf("repair pass lapsed at %v, after the next interest flood", k.Now())
	}
	if p := pendingPasses(k)[relay]; p.repair != 0 {
		t.Fatalf("lapsed relay still holds %d repair passes", p.repair)
	}

	relay.onInterest(2, msg.Message{Kind: msg.KindInterest, Interest: 0,
		ID: msg.MsgID(st.seenRound + 1), Origin: 2, Bytes: msg.ControlBytes})
	if g := rt.DataGradients(1, 0); len(g) != 1 || g[0] != 2 {
		t.Fatalf("relay's data gradients after the interest = %v, want [2]", g)
	}
	if p := pendingPasses(k)[relay]; p.repair != 1 || !relay.repairArmed {
		t.Fatalf("revived relay holds %d repair passes (armed %v), want 1", p.repair, relay.repairArmed)
	}
}

// The arming invariants hold at every node throughout a run in which nodes
// switch off and on and crash with amnesia, with the repair layer off and
// on.
func TestHousekeepingInvariantsUnderChurn(t *testing.T) {
	for _, repair := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		f, err := topology.Generate(topology.Config{
			Area: geom.Square(0, 0, 150), Nodes: 40, Range: 45,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		var roles Roles
		for i, id := range rng.Perm(f.Len())[:6] {
			if i < 2 {
				roles.Sinks = append(roles.Sinks, topology.NodeID(id))
			} else {
				roles.Sources = append(roles.Sources, topology.NodeID(id))
			}
		}
		k := sim.NewKernel(7)
		net := mac.New(k, f, mac.Params{})
		p := DefaultParams()
		if repair {
			p.Repair = DefaultRepairParams()
		}
		rt, err := New(k, net, f, p, firstCopyStrategy{}, roles, nil)
		if err != nil {
			t.Fatal(err)
		}
		rt.Start()
		var c housekeepingCensus
		for i := 0; k.Now() < 90*time.Second && k.Step(); i++ {
			if i%100 == 0 {
				checkHousekeeping(t, rt, &c)
			}
			if i%400 == 0 {
				id := topology.NodeID(rng.Intn(f.Len()))
				switch rng.Intn(3) {
				case 0:
					net.SetOn(id, !net.On(id))
				case 1:
					rt.Amnesia(id)
				default:
					net.SetOn(id, false)
					rt.Amnesia(id)
				}
			}
		}
		checkHousekeeping(t, rt, &c)
		t.Logf("repair=%v: node checks on the tree %d, holding aggregates %d (off %d)",
			repair, c.live, c.windowed, c.offWindowed)
		if c.live == 0 || c.windowed == 0 || c.offWindowed == 0 {
			t.Fatalf("repair=%v: the run never exercised the rules: %+v", repair, c)
		}
	}
}
