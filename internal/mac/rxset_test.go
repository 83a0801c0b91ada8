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

// reception is one (frame, receiver) pair as the reference model of
// rxTracker sees it.
type reception struct {
	node    topology.NodeID
	corrupt bool
}

// rxTracker is a brute-force model of who hears what, built between kernel
// steps from the transmissions in flight and the test's own power cycles,
// without the MAC's counters or stamps. A step fires one event, which
// starts at most one frame or ends at most one, so diffing the in-flight
// set between steps recovers every start and end in order. At a start, the
// sender loses everything it hears; each receiver then gets a reception
// that is corrupted if the receiver is transmitting or already hears a
// frame, and in that case everything it hears is corrupted too. A power-off
// cuts off everything the node hears and ends its transmitting. Each
// reception counts as one collision the moment it is first corrupted.
type rxTracker struct {
	inFlight     map[*transmission][]*reception
	live         map[topology.NodeID]map[*reception]bool // heard now, not cut off
	transmitting map[topology.NodeID]*transmission
	collisions   int
}

func newRxTracker() *rxTracker {
	return &rxTracker{
		inFlight:     map[*transmission][]*reception{},
		live:         map[topology.NodeID]map[*reception]bool{},
		transmitting: map[topology.NodeID]*transmission{},
	}
}

// corruptAll corrupts every reception node id hears.
func (m *rxTracker) corruptAll(id topology.NodeID) {
	for r := range m.live[id] {
		if !r.corrupt {
			r.corrupt = true
			m.collisions++
		}
	}
}

// step applies the frames that started or ended since the last call.
func (m *rxTracker) step(k *sim.Kernel) {
	now := map[*transmission]bool{}
	var started []*transmission
	for _, ev := range k.PendingEvents() {
		if tx, ok := ev.Runner.(*transmission); ok {
			now[tx] = true
			if _, known := m.inFlight[tx]; !known {
				started = append(started, tx)
			}
		}
	}
	for tx, rs := range m.inFlight {
		if now[tx] {
			continue
		}
		for _, r := range rs {
			delete(m.live[r.node], r)
		}
		if m.transmitting[tx.from] == tx {
			delete(m.transmitting, tx.from)
		}
		delete(m.inFlight, tx)
	}
	for _, tx := range started {
		m.corruptAll(tx.from)
		m.transmitting[tx.from] = tx
		rs := make([]*reception, len(tx.recv))
		for i, e := range tx.recv {
			id := topology.NodeID(e.id)
			r := &reception{node: id}
			if m.transmitting[id] != nil || len(m.live[id]) > 0 {
				r.corrupt = true
				m.collisions++
				m.corruptAll(id)
			}
			if m.live[id] == nil {
				m.live[id] = map[*reception]bool{}
			}
			m.live[id][r] = true
			rs[i] = r
		}
		m.inFlight[tx] = rs
	}
}

// powerOff cuts off everything node id hears and ends its transmitting.
func (m *rxTracker) powerOff(id topology.NodeID) {
	clear(m.live[id])
	delete(m.transmitting, id)
}

// cutOff reports whether some frame in flight holds an entry for node id
// that the model has cut off.
func (m *rxTracker) cutOff(id topology.NodeID) bool {
	for _, rs := range m.inFlight {
		for _, r := range rs {
			if r.node == id && !m.live[id][r] {
				return true
			}
		}
	}
	return false
}

// checkCounterInvariants verifies the receiver counters between kernel
// steps against the model: each node's heard count is the number of
// entries addressed to it in frames in flight that it has not been cut off
// from, its clean count those of them not yet corrupted, and the collision
// count is the model's. It also checks that every in-flight transmission's
// destination slot is absent exactly when the destination has no entry and
// otherwise addresses it, pooled transmissions hold no entries, and end()'s
// node→slot index is all zeros.
func checkCounterInvariants(t *testing.T, k *sim.Kernel, n *Network, m *rxTracker, step int) {
	t.Helper()
	heard := make([]int32, len(n.nodes))
	clean := make([]int32, len(n.nodes))
	for _, rs := range m.inFlight {
		for _, r := range rs {
			if m.live[r.node][r] {
				heard[r.node]++
				if !r.corrupt {
					clean[r.node]++
				}
			}
		}
	}
	for i := range n.nodes {
		if ns := &n.nodes[i]; ns.heard != heard[i] || ns.clean != clean[i] {
			t.Fatalf("step %d: node %d counts %d heard, %d clean; the model %d, %d",
				step, i, ns.heard, ns.clean, heard[i], clean[i])
		}
	}
	if got := n.Stats().Collisions; got != m.collisions {
		t.Fatalf("step %d: %d collisions, the model counts %d", step, got, m.collisions)
	}
	for _, ev := range k.PendingEvents() {
		tx, ok := ev.Runner.(*transmission)
		if !ok {
			continue
		}
		want := int32(0)
		for j, e := range tx.recv {
			if topology.NodeID(e.id) == tx.to {
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

func TestReceiverCounterInvariants(t *testing.T) {
	// Queues full of broadcasts and unicasts on two 8-node layouts, with one
	// node power-cycled mid-run and one receiver moved out of range
	// mid-airtime; the counters must match the model after every kernel
	// step. In the cluster everyone hears everyone, so carrier sense keeps
	// frames apart except where an ACK skips it; on the hidden-terminal line
	// the middle nodes hear overlapping frames that end in any order. Each
	// power cycle is one step long and starts while the node hears a frame,
	// so when another frame starts in the same instant, the node counts it
	// while the frame it was cut off from is still in flight. Cycles repeat
	// until that has happened.
	for _, layout := range []struct {
		name        string
		build       func(*testing.T) (*sim.Kernel, *Network)
		wantOverlap bool
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
			cycles, overlaps, cutMet, moved := 0, 0, false, false
			m := newRxTracker()
			for step := 1; k.Step(); step++ {
				m.step(k)
				checkCounterInvariants(t, k, n, m, step)
				for i := range n.nodes {
					if n.nodes[i].heard > 1 {
						overlaps++
					}
				}
				if cycles > 0 && !cutMet {
					cutMet = n.nodes[off].heard > 0 && m.cutOff(off)
				}
				switch {
				case !n.On(off):
					n.SetOn(off, true)
				case step >= firstCycle && !cutMet && n.nodes[off].heard > 0:
					n.SetOn(off, false)
					m.powerOff(off)
					cycles++
				}
				if !moved && n.nodes[mover].heard > 0 {
					n.field.MoveNode(mover, geom.Point{X: 900, Y: 50000})
					moved = true
				}
			}
			if cycles == 0 || !moved {
				t.Fatalf("power cycles %d, moved %v: the run ended too early", cycles, moved)
			}
			if !cutMet {
				t.Fatalf("after %d power cycles node %d never heard a frame while cut off from another", cycles, off)
			}
			if layout.wantOverlap && overlaps == 0 {
				t.Fatal("no node ever heard two frames at once")
			}
			if n.Stats().Collisions == 0 {
				t.Fatal("no collisions: the layout was not contended")
			}
		})
	}
}

func TestPowerCycledDestinationIsNotAcked(t *testing.T) {
	// The destination is switched off and back on while a unicast to it is
	// on the air. It never finished receiving the frame, so it must not ACK
	// it: the sender retries, and the retry delivers the frame once.
	k, n := line(t, 1, 0, 30)
	var c capture
	n.SetReceiver(1, c.receiver(k))
	type outcome struct {
		acked   bool
		retries int
	}
	var got []outcome
	n.SetUnicastOutcomeHook(func(_, _ topology.NodeID, _ Frame, acked bool, retries int) {
		got = append(got, outcome{acked, retries})
	})
	if err := n.Unicast(0, 1, Frame{Bytes: 64, Payload: "cut"}); err != nil {
		t.Fatal(err)
	}
	stepUntilOnAir(t, k, n, 0)
	n.SetOn(1, false)
	n.SetOn(1, true)
	k.Run(time.Second)
	if len(c.from) != 1 || c.data[0] != "cut" {
		t.Fatalf("destination received %v, want the frame once", c.data)
	}
	if want := []outcome{{true, 1}}; !slices.Equal(got, want) {
		t.Fatalf("outcomes %+v, want %+v", got, want)
	}
	if s := n.Stats(); s.AcksMissing != 1 || s.Retries != 1 || s.Delivered != 1 {
		t.Fatalf("stats %+v: want one missing ACK, one retry, one delivery", s)
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
