package mac

import (
	"math/rand"
	"reflect"
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
// with rxHeard set, and that entry's pos points back at the hearing's index
// in the audible list; every in-flight transmission's destination slot is
// absent exactly when the destination has no entry and otherwise addresses
// it, pooled transmissions hold no entries, and end()'s node→slot index is
// all zeros.
func checkSlotInvariants(t *testing.T, k *sim.Kernel, n *Network, step int) {
	t.Helper()
	for i := range n.nodes {
		for p, h := range n.nodes[i].audible {
			if h.slot < 0 || int(h.slot) >= len(h.tx.recv) {
				t.Fatalf("step %d: node %d hears slot %d of a %d-entry set", step, i, h.slot, len(h.tx.recv))
			}
			e := h.tx.recv[h.slot]
			if e.id != topology.NodeID(i) || e.flags&rxHeard == 0 {
				t.Fatalf("step %d: node %d's audible slot %d addresses %+v", step, i, h.slot, e)
			}
			if int(e.pos) != p {
				t.Fatalf("step %d: node %d's hearing at index %d has its entry pointing at %d", step, i, p, e.pos)
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

// staleMeetsRegrown reports whether some frame still in flight holds a heard
// entry for node id whose position falls inside id's audible list but
// addresses another frame's hearing: a position left over from before id was
// power-cycled, which finishReception must recognize as stale.
func staleMeetsRegrown(k *sim.Kernel, n *Network, id topology.NodeID) bool {
	audible := n.nodes[id].audible
	for _, ev := range k.PendingEvents() {
		tx, ok := ev.Runner.(*transmission)
		if !ok {
			continue
		}
		for _, e := range tx.recv {
			if e.id == id && e.flags&rxHeard != 0 && int(e.pos) < len(audible) && audible[e.pos].tx != tx {
				return true
			}
		}
	}
	return false
}

func TestReceiverSetSlotInvariants(t *testing.T) {
	// Queues full of broadcasts and unicasts on two 8-node layouts, with one
	// node power-cycled mid-run and one receiver moved out of range
	// mid-airtime; the slot and position invariants must hold after every
	// kernel step. In the cluster everyone hears everyone, so carrier sense
	// keeps frames apart except where an ACK skips it; on the hidden-terminal
	// line the middle nodes hear overlapping frames that end in any order,
	// so removals swap hearings and re-point their positions. Each power
	// cycle is one step long and starts while the node hears a frame, so
	// when another frame starts in the same instant, the stale position of
	// the first meets the re-grown audible list. Cycles repeat until that
	// has happened.
	for _, layout := range []struct {
		name      string
		build     func(*testing.T) (*sim.Kernel, *Network)
		wantMoves bool
	}{
		{"cluster", func(t *testing.T) (*sim.Kernel, *Network) { return clusterNet(t, 0) }, false},
		{"hidden", hiddenNet, true},
	} {
		t.Run(layout.name, func(t *testing.T) {
			k, n := layout.build(t)
			for i := 0; i < 8; i++ {
				n.SetReceiver(topology.NodeID(i), (&capture{}).receiver(k))
			}
			queueRounds(t, n, 4)
			const off, mover, firstCycle = 3, 7, 100
			cycles, moves, staleMet, moved := 0, 0, false, false
			// prev holds every hearing's audible index as the last step left
			// it. A hearing found lower down has been swapped down; one gone
			// while its frame still marks it heard was dropped for another.
			prev, cur := map[hearing]int{}, map[hearing]int{}
			for step := 1; k.Step(); step++ {
				checkSlotInvariants(t, k, n, step)
				audibleIndex(n, cur)
				for h, q := range prev {
					p, ok := cur[h]
					switch {
					case ok && p < q:
						moves++
					case !ok && int(h.slot) < len(h.tx.recv) && h.tx.recv[h.slot].flags&rxHeard != 0:
						t.Fatalf("step %d: node %d lost its hearing of a frame still on the air", step, h.tx.recv[h.slot].id)
					}
				}
				if cycles > 0 && !staleMet {
					staleMet = staleMeetsRegrown(k, n, off)
				}
				switch {
				case !n.On(off):
					n.SetOn(off, true)
				case step >= firstCycle && !staleMet && len(n.nodes[off].audible) > 0:
					n.SetOn(off, false)
					cycles++
				}
				if !moved && len(n.nodes[mover].audible) > 0 {
					n.field.MoveNode(mover, geom.Point{X: 900, Y: 50000})
					moved = true
				}
				audibleIndex(n, prev)
			}
			if cycles == 0 || !moved {
				t.Fatalf("power cycles %d, moved %v: the run ended too early", cycles, moved)
			}
			if !staleMet {
				t.Fatalf("after %d power cycles no stale position met node %d's re-grown audible list", cycles, off)
			}
			if layout.wantMoves && moves == 0 {
				t.Fatal("no hearing was swapped down an audible list: positions were never re-pointed")
			}
			if n.Stats().Collisions == 0 {
				t.Fatal("no collisions: the layout was not contended")
			}
		})
	}
}

// queueRounds queues, rounds times over, a broadcast and a unicast to the
// next node from each of nodes 0-7.
func queueRounds(t *testing.T, n *Network, rounds int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
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
}

// audibleIndex fills into with every hearing's index in its node's audible
// list.
func audibleIndex(n *Network, into map[hearing]int) {
	clear(into)
	for i := range n.nodes {
		for p, h := range n.nodes[i].audible {
			into[h] = p
		}
	}
}

// hiddenNet builds an 8-node line of three groups: nodes 0-2 on the left,
// 3-4 in the middle and 5-7 on the right. The middle hears both ends, but
// the ends are out of range of each other (hidden terminals), so their
// frames overlap at the middle nodes with any start and end order.
func hiddenNet(t *testing.T) (*sim.Kernel, *Network) {
	t.Helper()
	var pts []geom.Point
	for _, x := range []float64{0, 2, 4, 36, 38, 70, 72, 74} {
		pts = append(pts, geom.Point{X: x, Y: 0})
	}
	f, err := topology.FromPositions(geom.Square(0, 0, 100000), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(7)
	n := New(k, f, Params{})
	return k, n
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
	n := New(k, f, Params{})
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

func TestLinkNeutralMoveReordersDelivery(t *testing.T) {
	// Node 3 joins sender 0's list last, so the list is 2, 1, 3. Mid-airtime
	// the sender itself moves by 1 m: no link is gained or lost, but its list
	// is rescanned in grid order as 3, 2, 1, and the frame must settle in
	// that live order, not in the order its receivers were recorded.
	pts := []geom.Point{{X: 60, Y: 60}, {X: 90, Y: 60}, {X: 30, Y: 60}, {X: 900, Y: 900}}
	f, err := topology.FromPositions(geom.Square(0, 0, 1000), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	f.MoveNode(3, geom.Point{X: 60, Y: 30})
	if got, want := f.Neighbors(0), []topology.NodeID{2, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("neighbor list %v before the frame, want %v", got, want)
	}
	k := sim.NewKernel(3)
	n := New(k, f, Params{})
	var order []topology.NodeID
	for i := 1; i < len(pts); i++ {
		id := topology.NodeID(i)
		n.SetReceiver(id, func(topology.NodeID, Frame) { order = append(order, id) })
	}
	if err := n.Broadcast(0, Frame{Bytes: 64, Payload: "reordered"}); err != nil {
		t.Fatal(err)
	}
	stepUntilOnAir(t, k, n, 0)
	if changed := f.MoveNode(0, geom.Point{X: 61, Y: 60}); changed != 0 {
		t.Fatalf("the 1 m move changed %d links, want 0", changed)
	}
	want := []topology.NodeID{3, 2, 1}
	if got := f.Neighbors(0); !slices.Equal(got, want) {
		t.Fatalf("neighbor list %v after the move, want %v", got, want)
	}
	k.Run(time.Second)
	if !slices.Equal(order, want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
}

func TestSettlePathsAgreeOnUnmovedField(t *testing.T) {
	// end() settles a frame in slot order when the field took no MoveNode
	// during its airtime, and re-walks the live neighbor list otherwise. On a
	// field whose lists never change the two must agree. The same seeded,
	// contended, lossy traffic runs twice: once with no move, so every frame
	// settles in slot order, and once with a same-position move of the
	// isolated padding node inside every frame's airtime, so every frame
	// takes the walk. Deliveries and drops, in order, the counters and every
	// meter must match.
	type rx struct {
		to, from topology.NodeID
		payload  any
		drop     RxDropReason // zero for a delivery
	}
	run := func(walk bool) ([]rx, Stats, []energy.Meter) {
		k, n := clusterNet(t, 1)
		const pad = 8
		var log []rx
		for i := 0; i < 8; i++ {
			to := topology.NodeID(i)
			n.SetReceiver(to, func(from topology.NodeID, f Frame) { log = append(log, rx{to, from, f.Payload, 0}) })
		}
		n.SetDropHook(func(from, to topology.NodeID, f Frame, r RxDropReason) { log = append(log, rx{to, from, f.Payload, r}) })
		rng := k.Rand()
		n.SetLinkFilter(func(topology.NodeID, topology.NodeID) bool { return rng.Intn(8) != 0 })
		queueRounds(t, n, 4)
		for k.Step() {
			if !walk {
				continue
			}
			// A frame that started this step has not seen a move yet.
			for _, ev := range k.PendingEvents() {
				if tx, ok := ev.Runner.(*transmission); ok && tx.moves == n.field.Moves() {
					n.field.MoveNode(pad, n.field.Position(pad))
					break
				}
			}
		}
		if moved := n.field.Moves() > 0; moved != walk {
			t.Fatalf("walk run %v took %d moves", walk, n.field.Moves())
		}
		meters := make([]energy.Meter, len(n.energy))
		copy(meters, n.energy)
		return log, n.Stats(), meters
	}
	slotLog, slotStats, slotMeters := run(false)
	walkLog, walkStats, walkMeters := run(true)
	if slotStats.Collisions == 0 || slotStats.LinkLoss == 0 {
		t.Fatalf("stats %+v: the traffic saw no collision or no link loss", slotStats)
	}
	if !reflect.DeepEqual(slotLog, walkLog) {
		for i := range slotLog {
			if i >= len(walkLog) || slotLog[i] != walkLog[i] {
				t.Fatalf("reception %d of %d: slot order %+v, live walk %+v", i, len(slotLog), slotLog[i:], walkLog[min(i, len(walkLog)):])
			}
		}
		t.Fatalf("live walk logged %d receptions, slot order %d", len(walkLog), len(slotLog))
	}
	if !reflect.DeepEqual(slotStats, walkStats) {
		t.Fatalf("stats differ: slot order %+v, live walk %+v", slotStats, walkStats)
	}
	if !slices.Equal(slotMeters, walkMeters) {
		t.Fatalf("meters differ: slot order %+v, live walk %+v", slotMeters, walkMeters)
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
	n := New(k, f, Params{})
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
	n := New(k, f, Params{})
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
