package mac

import (
	"testing"
	"time"

	"repro/internal/geom"
)

// stepUntilOnAir single-steps the kernel until node id is physically
// transmitting, so a test can change the topology mid-airtime exactly.
func stepUntilOnAir(t *testing.T, k interface{ Step() bool }, n *Network, id int) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if n.nodes[id].txActive {
			return
		}
		if !k.Step() {
			t.Fatal("kernel drained before the frame went on air")
		}
	}
	t.Fatal("node never started transmitting")
}

func TestReceiverMovedOutMidAirtimeStillCompletes(t *testing.T) {
	// 0 and 1 in range; 1 moves out of range while 0's frame is in flight.
	// The reception was captured at airtime start, so it still completes,
	// and — the regression this guards — 1's audible set must not leak the
	// transmission record.
	k, n := line(t, 1, 0, 30)
	var c capture
	n.SetReceiver(1, c.receiver(k))
	if err := n.Broadcast(0, Frame{Bytes: 64, Payload: "mid-flight"}); err != nil {
		t.Fatal(err)
	}
	stepUntilOnAir(t, k, n, 0)
	n.field.MoveNode(1, geom.Point{X: 500, Y: 500})
	k.Run(time.Second)
	if len(c.from) != 1 || c.data[0] != "mid-flight" {
		t.Fatalf("captures: %+v, want the in-flight frame delivered", c)
	}
	if len(n.nodes[1].audible) != 0 {
		t.Fatalf("audible leak: %d entries after airtime end", len(n.nodes[1].audible))
	}
}

func TestReceiverMovedInMidAirtimeHearsNothing(t *testing.T) {
	// 2 starts out of range of 0 and moves next to it mid-airtime: it missed
	// the frame start, so it must not receive, and its audible set must stay
	// clean for later traffic.
	k, n := line(t, 1, 0, 30, 500)
	var c2 capture
	n.SetReceiver(2, c2.receiver(k))
	if err := n.Broadcast(0, Frame{Bytes: 64, Payload: "missed"}); err != nil {
		t.Fatal(err)
	}
	stepUntilOnAir(t, k, n, 0)
	n.field.MoveNode(2, geom.Point{X: 10, Y: 0})
	k.Run(time.Second)
	if len(c2.from) != 0 {
		t.Fatalf("late-arriving node received a frame it never heard start: %+v", c2)
	}
	if len(n.nodes[2].audible) != 0 {
		t.Fatalf("audible leak at moved-in node: %d entries", len(n.nodes[2].audible))
	}
	// The channel still works for it at the new position.
	var c0 capture
	n.SetReceiver(0, c0.receiver(k))
	if err := n.Broadcast(2, Frame{Bytes: 64, Payload: "hello"}); err != nil {
		t.Fatal(err)
	}
	k.Run(2 * time.Second)
	if len(c0.from) != 1 || c0.data[0] != "hello" {
		t.Fatalf("post-move traffic failed: %+v", c0)
	}
}

func TestUnicastDestinationMovedOutGetsRetried(t *testing.T) {
	// The ACK decision consults live positions: a destination that moved out
	// mid-exchange cannot ACK, so the sender retries and eventually drops.
	k, n := line(t, 1, 0, 30)
	var c capture
	n.SetReceiver(1, c.receiver(k))
	if err := n.Unicast(0, 1, Frame{Bytes: 64, Payload: "chase"}); err != nil {
		t.Fatal(err)
	}
	stepUntilOnAir(t, k, n, 0)
	n.field.MoveNode(1, geom.Point{X: 900, Y: 900})
	k.Run(2 * time.Second)
	if n.Stats().Drops[DropRetryExceeded] != 1 {
		t.Fatalf("drops: %+v, want one retry-exceeded", n.Stats().Drops)
	}
	if n.Stats().Retries != retryLimit {
		t.Fatalf("retries = %d, want %d", n.Stats().Retries, retryLimit)
	}
}

func TestChurningTopologyNeverLeaksAudible(t *testing.T) {
	// Continuous movement while frames are in flight: after the run drains,
	// every audible set must be empty regardless of how adjacency churned.
	k, n := line(t, 7, 0, 20, 40, 60)
	for i := 0; i < 4; i++ {
		n.SetReceiver(n.nodes[i].id, (&capture{}).receiver(k))
	}
	rng := k.Rand()
	var churn func()
	churn = func() {
		id := rng.Intn(4)
		n.field.MoveNode(n.nodes[id].id, geom.Point{
			X: rng.Float64() * 100, Y: rng.Float64() * 10,
		})
		if b := rng.Intn(4); b != id {
			n.Broadcast(n.nodes[b].id, Frame{Bytes: 64, Payload: "x"}) //nolint:errcheck
		}
		if k.Now() < 50*time.Millisecond {
			k.Schedule(37*time.Microsecond, churn)
		}
	}
	k.Schedule(0, churn)
	k.Run(time.Second)
	for i := 0; i < 4; i++ {
		if len(n.nodes[i].audible) != 0 {
			t.Fatalf("node %d audible leak: %d entries", i, len(n.nodes[i].audible))
		}
	}
}
