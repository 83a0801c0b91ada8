package mac

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/topology"
)

// checkSlotInvariants verifies the slot-addressed receiver sets between
// kernel steps: every audible (tx, slot) addresses the node's own entry
// with rxHeard set, every in-flight transmission's destination slot is
// absent exactly when the destination has no entry and otherwise addresses
// it, pooled transmissions hold no entries, and end()'s node→slot index is
// all zeros.
func checkSlotInvariants(t *testing.T, k *sim.Kernel, n *Network, step int) {
	t.Helper()
	for i := range n.nodes {
		for _, h := range n.nodes[i].audible {
			if h.slot < 0 || int(h.slot) >= len(h.tx.recv) {
				t.Fatalf("step %d: node %d hears slot %d of a %d-entry set", step, i, h.slot, len(h.tx.recv))
			}
			e := h.tx.recv[h.slot]
			if e.id != topology.NodeID(i) || e.flags&rxHeard == 0 {
				t.Fatalf("step %d: node %d's audible slot %d addresses %+v", step, i, h.slot, e)
			}
		}
	}
	for _, ev := range k.PendingEvents() {
		tx, ok := ev.Runner.(*transmission)
		if !ok {
			continue
		}
		want := int32(0)
		for j, e := range tx.recv {
			if e.id == tx.to {
				want = int32(j) + 1
			}
		}
		if tx.dst != want {
			t.Fatalf("step %d: transmission %d→%d has destination slot %d, want %d (entries %+v)",
				step, tx.from, tx.to, tx.dst, want, tx.recv)
		}
	}
	for _, tx := range n.txFree {
		if len(tx.recv) != 0 || tx.dst != 0 {
			t.Fatalf("step %d: pooled transmission holds %d entries, destination slot %d", step, len(tx.recv), tx.dst)
		}
	}
	for id, s := range n.rxSlot {
		if s != 0 {
			t.Fatalf("step %d: rxSlot[%d] = %d between frames", step, id, s)
		}
	}
}

func TestReceiverSetSlotInvariants(t *testing.T) {
	// A contended cluster (everyone in range of everyone, queues full of
	// broadcasts and unicasts) with one node switched off mid-run and one
	// receiver moved out of range mid-airtime; the slot invariants must
	// hold after every kernel step.
	k, n := clusterNet(t, 0)
	for i := 0; i < 8; i++ {
		n.SetReceiver(topology.NodeID(i), (&capture{}).receiver(k))
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 8; i++ {
			id := topology.NodeID(i)
			if err := n.Broadcast(id, Frame{Bytes: 64, Payload: i}); err != nil {
				t.Fatal(err)
			}
			if err := n.Unicast(id, topology.NodeID((i+1)%8), Frame{Bytes: 96, Payload: i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const off, mover = 3, 7
	switchedOff, moved := false, false
	for step := 1; k.Step(); step++ {
		checkSlotInvariants(t, k, n, step)
		if !switchedOff && step == 300 {
			n.SetOn(off, false)
			switchedOff = true
		}
		if !moved && len(n.nodes[mover].audible) > 0 {
			n.field.MoveNode(mover, geom.Point{X: 900, Y: 50000})
			moved = true
		}
	}
	if !switchedOff || !moved {
		t.Fatalf("switched off %v, moved %v: the run ended too early", switchedOff, moved)
	}
	if n.Stats().Collisions == 0 {
		t.Fatal("no collisions: the cluster was not contended")
	}
}

func TestResidualMoversDeliveredAscending(t *testing.T) {
	// Sender 0 sits mid-cell; its neighbors lie in four different grid
	// cells, so the scan order of its neighbor list is 4, 2, 1, 3. Receivers
	// 4 and then 2 move out of range mid-airtime: the frame must reach the
	// live neighbors 1 and 3 first, in scan order, then the movers in
	// ascending ID (2 before 4), not in scan or move order.
	pts := []geom.Point{{X: 60, Y: 60}, {X: 90, Y: 60}, {X: 30, Y: 60}, {X: 60, Y: 90}, {X: 60, Y: 30}}
	f, err := topology.FromPositions(geom.Square(0, 0, 1000), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f.Neighbors(0), []topology.NodeID{4, 2, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("neighbor scan order %v, want %v", got, want)
	}
	k := sim.NewKernel(3)
	n, err := New(k, f, energy.PaperModel(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var order []topology.NodeID
	for i := 1; i < len(pts); i++ {
		id := topology.NodeID(i)
		n.SetReceiver(id, func(topology.NodeID, Frame) { order = append(order, id) })
	}
	if err := n.Broadcast(0, Frame{Bytes: 64, Payload: "residual"}); err != nil {
		t.Fatal(err)
	}
	stepUntilOnAir(t, k, n, 0)
	n.field.MoveNode(4, geom.Point{X: 900, Y: 900})
	n.field.MoveNode(2, geom.Point{X: 900, Y: 700})
	k.Run(time.Second)
	if want := []topology.NodeID{1, 3, 2, 4}; !slices.Equal(order, want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
}

// clusterNet builds a field with an 8-node cluster (everyone in range of
// everyone) plus `padding` far-away isolated nodes that only inflate the
// field size.
func clusterNet(t *testing.T, padding int) (*sim.Kernel, *Network) {
	t.Helper()
	var pts []geom.Point
	for i := 0; i < 8; i++ {
		pts = append(pts, geom.Point{X: float64(i) * 4, Y: 0})
	}
	for i := 0; i < padding; i++ {
		// One isolated node per far row: out of range of the cluster and of
		// each other, so the degree everywhere stays fixed as N grows.
		pts = append(pts, geom.Point{X: 900, Y: 200 + float64(i)*90})
	}
	f, err := topology.FromPositions(geom.Square(0, 0, 100000), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(7)
	n, err := New(k, f, energy.PaperModel(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return k, n
}

func TestTransmissionFootprintDegreeBounded(t *testing.T) {
	// The pooled transmission's receiver set must size with radio degree,
	// not field size: the same 8-node cluster embedded in a 16-node and a
	// 64-node field must leave identical per-transmission capacity behind.
	footprint := func(padding int) int {
		k, n := clusterNet(t, padding)
		for i := 0; i < 8; i++ {
			if err := n.Broadcast(topology.NodeID(i), Frame{Bytes: 64, Payload: i}); err != nil {
				t.Fatal(err)
			}
		}
		k.Run(5 * time.Second)
		if len(n.txFree) == 0 {
			t.Fatal("no pooled transmissions after the run")
		}
		max := 0
		for _, tx := range n.txFree {
			if len(tx.recv) != 0 {
				t.Fatalf("pooled transmission retains %d receiver entries", len(tx.recv))
			}
			if c := cap(tx.recv); c > max {
				max = c
			}
		}
		return max
	}
	small, large := footprint(8), footprint(56)
	if small != large {
		t.Fatalf("per-transmission receiver capacity grew with field size: %d entries at 16 nodes, %d at 64", small, large)
	}
	if small == 0 || small > 8 {
		t.Fatalf("receiver capacity %d, want within the cluster degree (1..8)", small)
	}
}

func TestReceiverSetMatchesInRangeOracle(t *testing.T) {
	// Mobility churn with one frame in flight at a time: every broadcast
	// must deliver to exactly the brute-force InRange set snapshotted
	// before the frame goes on air — including when a third node moves
	// mid-airtime (the receiver set was pinned at airtime start).
	const nodes = 30
	rng := rand.New(rand.NewSource(99))
	var pts []geom.Point
	for i := 0; i < nodes; i++ {
		pts = append(pts, geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200})
	}
	f, err := topology.FromPositions(geom.Square(0, 0, 200), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(11)
	n, err := New(k, f, energy.PaperModel(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]capture, nodes)
	for i := 0; i < nodes; i++ {
		n.SetReceiver(topology.NodeID(i), caps[i].receiver(k))
	}
	for iter := 0; iter < 60; iter++ {
		// Shuffle somebody, then snapshot the oracle before transmitting.
		mover := topology.NodeID(rng.Intn(nodes))
		n.field.MoveNode(mover, geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200})
		src := topology.NodeID(rng.Intn(nodes))
		oracle := map[topology.NodeID]bool{}
		for j := 0; j < nodes; j++ {
			id := topology.NodeID(j)
			if id != src && n.field.InRange(src, id) {
				oracle[id] = true
			}
		}
		before := make([]int, nodes)
		for i := range caps {
			before[i] = len(caps[i].from)
		}
		if err := n.Broadcast(src, Frame{Bytes: 64, Payload: iter}); err != nil {
			t.Fatal(err)
		}
		stepUntilOnAir(t, k, n, int(src))
		// A mid-airtime move must not change this frame's receiver set.
		if late := topology.NodeID(rng.Intn(nodes)); late != src {
			n.field.MoveNode(late, geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200})
		}
		k.Run(k.Now() + time.Second) // horizon is absolute: drain this frame
		for j := 0; j < nodes; j++ {
			got := len(caps[j].from) - before[j]
			want := 0
			if oracle[topology.NodeID(j)] {
				want = 1
			}
			if got != want {
				t.Fatalf("iter %d: node %d received %d copies of src %d's frame, oracle says %d",
					iter, j, got, src, want)
			}
		}
	}
}
