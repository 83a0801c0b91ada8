package mac

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/topology"
)

// line builds a network over nodes placed at the given x coordinates (y=0)
// with 40 m range, so adjacency is controlled precisely per test.
func line(t *testing.T, seed int64, xs ...float64) (*sim.Kernel, *Network) {
	t.Helper()
	pts := make([]geom.Point, len(xs))
	for i, x := range xs {
		pts[i] = geom.Point{X: x, Y: 0}
	}
	f, err := topology.FromPositions(geom.Square(0, 0, 1000), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(seed)
	n := New(k, f, Params{})
	return k, n
}

type capture struct {
	from  []topology.NodeID
	data  []any
	times []time.Duration
}

func (c *capture) receiver(k *sim.Kernel) Receiver {
	return func(from topology.NodeID, f Frame) {
		c.from = append(c.from, from)
		c.data = append(c.data, f.Payload)
		c.times = append(c.times, k.Now())
	}
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	// 0 at x=0 hears 1 (x=30); 2 (x=60) is out of 0's range but hears 1.
	k, n := line(t, 1, 0, 30, 60)
	var c1, c2 capture
	n.SetReceiver(1, c1.receiver(k))
	n.SetReceiver(2, c2.receiver(k))
	if err := n.Broadcast(0, Frame{Bytes: 64, Payload: "hello"}); err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	if len(c1.from) != 1 || c1.from[0] != 0 || c1.data[0] != "hello" {
		t.Fatalf("node 1 captures: %+v", c1)
	}
	if len(c2.from) != 0 {
		t.Fatalf("node 2 out of range but received %+v", c2)
	}
}

func TestUnicastDeliversOnlyToDestination(t *testing.T) {
	// All three mutually in range.
	k, n := line(t, 1, 0, 10, 20)
	var c1, c2 capture
	n.SetReceiver(1, c1.receiver(k))
	n.SetReceiver(2, c2.receiver(k))
	if err := n.Unicast(0, 2, Frame{Bytes: 64, Payload: "direct"}); err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	if len(c2.from) != 1 || c2.data[0] != "direct" {
		t.Fatalf("destination captures: %+v", c2)
	}
	if len(c1.from) != 0 {
		t.Fatalf("third party delivered a unicast frame: %+v", c1)
	}
	// But the third party still paid receive energy for overhearing.
	if n.Meter(1).RxPackets() == 0 {
		t.Fatal("overhearing node paid no receive energy")
	}
}

func TestUnicastInvalidDestination(t *testing.T) {
	_, n := line(t, 1, 0, 30)
	if err := n.Unicast(0, Broadcast, Frame{Bytes: 10}); err == nil {
		t.Fatal("expected error for broadcast destination")
	}
	if err := n.Unicast(0, 99, Frame{Bytes: 10}); err == nil {
		t.Fatal("expected error for out-of-field destination")
	}
}

func TestRejectsBadFrames(t *testing.T) {
	_, n := line(t, 1, 0, 30)
	if err := n.Broadcast(0, Frame{Bytes: 0}); err == nil {
		t.Fatal("expected error for zero-size frame")
	}
}

func TestQueueLimit(t *testing.T) {
	k, n := line(t, 1, 0, 30)
	var errs int
	for i := 0; i < queueLimit+10; i++ {
		if err := n.Broadcast(0, Frame{Bytes: 64}); err != nil {
			errs++
		}
	}
	if errs != 10 {
		t.Fatalf("got %d queue-full errors, want 10", errs)
	}
	if n.Stats().Drops[DropQueueFull] != 10 {
		t.Fatalf("Drops[QueueFull] = %d", n.Stats().Drops[DropQueueFull])
	}
	k.Run(time.Second)
}

func TestOffNodeCannotSendOrReceive(t *testing.T) {
	k, n := line(t, 1, 0, 30)
	var c capture
	n.SetReceiver(1, c.receiver(k))
	n.SetOn(1, false)
	if n.On(1) {
		t.Fatal("node 1 should be off")
	}
	if err := n.Broadcast(0, Frame{Bytes: 64}); err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	if len(c.from) != 0 {
		t.Fatal("off node received a frame")
	}
	if n.Meter(1).RxPackets() != 0 {
		t.Fatal("off node paid receive energy")
	}
	if err := n.Broadcast(1, Frame{Bytes: 64}); err == nil {
		t.Fatal("off node accepted a frame to send")
	}
	// Power back on: traffic flows again.
	n.SetOn(1, true)
	if err := n.Broadcast(0, Frame{Bytes: 64}); err != nil {
		t.Fatal(err)
	}
	k.Run(2 * time.Second)
	if len(c.from) != 1 {
		t.Fatalf("recovered node received %d frames, want 1", len(c.from))
	}
}

func TestUnicastRetriesThenDrops(t *testing.T) {
	// Destination in range but off: no ACKs ever.
	k, n := line(t, 1, 0, 30)
	n.SetOn(1, false)
	if err := n.Unicast(0, 1, Frame{Bytes: 64}); err != nil {
		t.Fatal(err)
	}
	k.Run(5 * time.Second)
	st := n.Stats()
	if st.Retries != retryLimit {
		t.Fatalf("Retries = %d, want %d", st.Retries, retryLimit)
	}
	if st.Drops[DropRetryExceeded] != 1 {
		t.Fatalf("Drops[RetryExceeded] = %d, want 1", st.Drops[DropRetryExceeded])
	}
	// Queue must have advanced (no wedged MAC).
	if err := n.Unicast(0, 1, Frame{Bytes: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestUnicastAckSucceeds(t *testing.T) {
	k, n := line(t, 1, 0, 30)
	var c capture
	n.SetReceiver(1, c.receiver(k))
	if err := n.Unicast(0, 1, Frame{Bytes: 64, Payload: 7}); err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	st := n.Stats()
	if st.Retries != 0 {
		t.Fatalf("clean channel should need no retries, got %d", st.Retries)
	}
	if st.AckTx != 1 {
		t.Fatalf("AckTx = %d, want 1", st.AckTx)
	}
	if len(c.from) != 1 {
		t.Fatalf("delivered %d, want 1", len(c.from))
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// Classic hidden terminals: 0 (x=0) and 2 (x=60) cannot hear each other
	// but both reach 1 (x=30). Simultaneous broadcasts must collide at 1 at
	// least sometimes across seeds.
	collided := false
	for seed := int64(0); seed < 20 && !collided; seed++ {
		k, n := line(t, seed, 0, 30, 60)
		var c capture
		n.SetReceiver(1, c.receiver(k))
		_ = n.Broadcast(0, Frame{Bytes: 1000, Payload: "a"})
		_ = n.Broadcast(2, Frame{Bytes: 1000, Payload: "b"})
		k.Run(time.Second)
		if len(c.from) < 2 {
			collided = true
		}
	}
	if !collided {
		t.Fatal("hidden terminals never collided across 20 seeds")
	}
}

func TestCarrierSenseAvoidsCollision(t *testing.T) {
	// 0 and 1 hear each other; both broadcast to 2 in range of both. With
	// carrier sense, the second sender defers and both frames arrive.
	k, n := line(t, 3, 0, 10, 20)
	var c capture
	n.SetReceiver(2, c.receiver(k))
	_ = n.Broadcast(0, Frame{Bytes: 1000, Payload: "a"})
	_ = n.Broadcast(1, Frame{Bytes: 1000, Payload: "b"})
	k.Run(time.Second)
	if len(c.from) != 2 {
		t.Fatalf("expected 2 deliveries with carrier sense, got %d (collisions=%d)",
			len(c.from), n.Stats().Collisions)
	}
}

func TestEnergyChargedForTraffic(t *testing.T) {
	k, n := line(t, 1, 0, 30)
	_ = n.Broadcast(0, Frame{Bytes: 64})
	k.Run(time.Second)
	if n.Meter(0).TxJoules() <= 0 {
		t.Fatal("sender paid no transmit energy")
	}
	if n.Meter(1).RxJoules() <= 0 {
		t.Fatal("receiver paid no receive energy")
	}
	if n.Meter(1).TxJoules() != 0 {
		t.Fatal("receiver paid transmit energy for a broadcast")
	}
}

func TestHalfDuplexSenderMissesFrames(t *testing.T) {
	// Nodes 0 and 1 in range. Make 1 start a long transmission, then have 0
	// transmit: 1 cannot receive 0's frame while transmitting. We disable
	// carrier sense interference by letting 1 start first (0 defers), so
	// instead check the sender itself never receives its own or concurrent
	// traffic. Simplest observable: two mutually-in-range nodes that
	// transmit back-to-back still deliver both (serialization works), and a
	// transmitting node is never in its own delivery list.
	k, n := line(t, 1, 0, 30)
	var c0, c1 capture
	n.SetReceiver(0, c0.receiver(k))
	n.SetReceiver(1, c1.receiver(k))
	_ = n.Broadcast(0, Frame{Bytes: 64, Payload: "x"})
	_ = n.Broadcast(1, Frame{Bytes: 64, Payload: "y"})
	k.Run(time.Second)
	if len(c0.from) != 1 || len(c1.from) != 1 {
		t.Fatalf("deliveries c0=%d c1=%d, want 1 and 1", len(c0.from), len(c1.from))
	}
	if c0.data[0] != "y" || c1.data[0] != "x" {
		t.Fatalf("wrong payloads: c0=%v c1=%v", c0.data, c1.data)
	}
}

func TestQueueDrainsInOrder(t *testing.T) {
	k, n := line(t, 1, 0, 30)
	var c capture
	n.SetReceiver(1, c.receiver(k))
	for i := 0; i < 5; i++ {
		if err := n.Broadcast(0, Frame{Bytes: 64, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(time.Second)
	if len(c.data) != 5 {
		t.Fatalf("delivered %d, want 5", len(c.data))
	}
	for i, v := range c.data {
		if v != i {
			t.Fatalf("out-of-order delivery: %v", c.data)
		}
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	k, n := line(t, 1, 0, 30)
	_ = n.Broadcast(0, Frame{Bytes: 64})
	k.Run(time.Second)
	s := n.Stats()
	s.Drops[DropQueueFull] = 999
	if n.Stats().Drops[DropQueueFull] == 999 {
		t.Fatal("Stats shares the network's counters")
	}
}

func TestAirtimeOrdersDelivery(t *testing.T) {
	// A 1000-byte frame takes 5 ms at 1.6 Mb/s; delivery must happen no
	// earlier than its airtime after submission.
	k, n := line(t, 1, 0, 30)
	var c capture
	n.SetReceiver(1, c.receiver(k))
	_ = n.Broadcast(0, Frame{Bytes: 1000})
	k.Run(time.Second)
	if len(c.times) != 1 {
		t.Fatal("no delivery")
	}
	if c.times[0] < 5*time.Millisecond {
		t.Fatalf("delivered at %v, before the 5ms airtime", c.times[0])
	}
}

func TestSetOnIdempotent(t *testing.T) {
	_, n := line(t, 1, 0, 30)
	n.SetOn(0, true) // already on: no-op
	n.SetOn(0, false)
	n.SetOn(0, false) // already off: no-op
	if n.On(0) {
		t.Fatal("node should be off")
	}
}

// Switching a node off counts its queued frames as node-off drops, and
// nothing when the queue was empty.
func TestSetOnCountsQueuedFramesOnly(t *testing.T) {
	_, n := line(t, 1, 0, 30)
	n.SetOn(0, false)
	if d := n.Stats().Drops[DropNodeOff]; d != 0 {
		t.Fatalf("empty queue switched off: Drops[NodeOff] = %d, want 0", d)
	}
	n.SetOn(0, true)
	for i := 0; i < 2; i++ {
		if err := n.Broadcast(0, Frame{Bytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	n.SetOn(0, false)
	if d := n.Stats().Drops[DropNodeOff]; d != 2 {
		t.Fatalf("two queued frames switched off: Drops[NodeOff] = %d, want 2", d)
	}
}
