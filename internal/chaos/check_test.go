package chaos

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ringTrees is a static TreeSource exposing the 3-node data-gradient cycle
// 0 -> 1 -> 2 -> 0 for interest 0.
type ringTrees struct{}

func (ringTrees) DataGradients(id topology.NodeID, iid msg.InterestID) []topology.NodeID {
	if iid != 0 {
		return nil
	}
	return []topology.NodeID{(id + 1) % 3}
}

// checkerFixture builds a Checker over a tiny live network, driven directly.
func checkerFixture(t *testing.T) (*sim.Kernel, *Checker) {
	t.Helper()
	kernel := sim.NewKernel(1)
	field, err := topology.Generate(topology.Config{
		Area: geom.Square(0, 0, 100), Nodes: 3, Range: 300,
	}, kernel.Rand())
	if err != nil {
		t.Fatal(err)
	}
	net := mac.New(kernel, field, mac.Params{})
	c := newChecker(kernel, net, field)
	c.bind(ringTrees{}, 1)
	return kernel, c
}

// staleRound records a pure-duplicate data reception on every cycle edge —
// the traffic pattern the persistent-gradient-cycle rule flags.
func staleRound(c *Checker, at time.Duration) {
	for i := 0; i < 3; i++ {
		c.Record(trace.Event{
			At: at, Op: trace.OpReceive, Kind: msg.KindData,
			Node: topology.NodeID((i + 1) % 3), Peer: topology.NodeID(i),
			Items: 1, Fresh: 0,
		})
	}
}

// TestCheckerFlagsStaleCycle pins the baseline: a gradient cycle carrying
// exclusively duplicate traffic across two consecutive audits is a
// violation.
func TestCheckerFlagsStaleCycle(t *testing.T) {
	kernel, c := checkerFixture(t)
	kernel.Schedule(4500*time.Millisecond, func() { staleRound(c, kernel.Now()) })
	kernel.Schedule(5*time.Second, c.audit)
	kernel.Schedule(9500*time.Millisecond, func() { staleRound(c, kernel.Now()) })
	kernel.Schedule(10*time.Second, c.audit)
	kernel.Run(11 * time.Second)
	if c.ViolationCount() != 1 {
		t.Fatalf("violations = %d, want 1 (stale cycle over two audits): %v",
			c.ViolationCount(), c.Violations())
	}
}

// TestCheckerExcusesRepairedCycle is the self-healing regression: the same
// stale cycle is excused when a member node performed a local repair within
// the grace window — re-reinforcement after detected silence must not read
// as a truncation failure — and is flagged again once the grace expires.
func TestCheckerExcusesRepairedCycle(t *testing.T) {
	kernel, c := checkerFixture(t)
	kernel.Schedule(4500*time.Millisecond, func() { staleRound(c, kernel.Now()) })
	kernel.Schedule(5*time.Second, c.audit)
	// Node 1 repairs at 7 s: inside the grace window of the 10 s audit.
	kernel.Schedule(7*time.Second, func() {
		c.Record(trace.Event{
			At: kernel.Now(), Op: trace.OpRepair, Kind: msg.KindReinforce,
			Node: 1, Peer: 2,
		})
	})
	kernel.Schedule(9500*time.Millisecond, func() { staleRound(c, kernel.Now()) })
	kernel.Schedule(10*time.Second, c.audit)
	kernel.Schedule(10500*time.Millisecond, func() {
		if c.ViolationCount() != 0 {
			t.Errorf("violations = %d at 10.5s, want 0 (cycle repaired at 7s): %v",
				c.ViolationCount(), c.Violations())
		}
	})
	// The repair grace is two audit periods; by the 20 s audit the 7 s repair
	// no longer excuses the still-stale cycle.
	kernel.Schedule(14500*time.Millisecond, func() { staleRound(c, kernel.Now()) })
	kernel.Schedule(15*time.Second, c.audit)
	kernel.Schedule(19500*time.Millisecond, func() { staleRound(c, kernel.Now()) })
	kernel.Schedule(20*time.Second, c.audit)
	kernel.Run(21 * time.Second)
	if c.ViolationCount() != 1 {
		t.Fatalf("violations = %d after grace expiry, want 1: %v",
			c.ViolationCount(), c.Violations())
	}
}

// TestCheckerExcusesOutOfRangeCycle pins the mobility interaction: a stale
// cycle with an edge whose endpoints moved out of radio range is stranded
// protocol state, not a truncation failure — and is flagged again once the
// nodes move back into range and the staleness evidence re-accumulates.
func TestCheckerExcusesOutOfRangeCycle(t *testing.T) {
	kernel := sim.NewKernel(1)
	field, err := topology.FromPositions(geom.Square(0, 0, 1000), 100,
		[]geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	net := mac.New(kernel, field, mac.Params{})
	c := newChecker(kernel, net, field)
	c.bind(ringTrees{}, 1)

	kernel.Schedule(4500*time.Millisecond, func() { staleRound(c, kernel.Now()) })
	kernel.Schedule(5*time.Second, c.audit)
	// Node 2 wanders away before the second audit: edges 1->2 and 2->0 can no
	// longer carry frames, so the surviving cycle is excused.
	kernel.Schedule(7*time.Second, func() {
		field.MoveNode(2, geom.Point{X: 900, Y: 900})
	})
	kernel.Schedule(9500*time.Millisecond, func() { staleRound(c, kernel.Now()) })
	kernel.Schedule(10*time.Second, c.audit)
	kernel.Schedule(10500*time.Millisecond, func() {
		if c.ViolationCount() != 0 {
			t.Errorf("violations = %d at 10.5s, want 0 (edge out of range): %v",
				c.ViolationCount(), c.Violations())
		}
	})
	// It comes back: the stale evidence re-accumulates and the rule fires.
	kernel.Schedule(12*time.Second, func() {
		field.MoveNode(2, geom.Point{X: 60, Y: 0})
	})
	kernel.Schedule(14500*time.Millisecond, func() { staleRound(c, kernel.Now()) })
	kernel.Schedule(15*time.Second, c.audit)
	kernel.Run(16 * time.Second)
	if c.ViolationCount() != 1 {
		t.Fatalf("violations = %d after the cycle returned in range, want 1: %v",
			c.ViolationCount(), c.Violations())
	}
}

// TestCheckerRepairGraceClearedOnReboot pins the amnesia interaction: a
// crash-with-amnesia wipes the node's repair stamp along with the rest of
// its invariant state.
func TestCheckerRepairGraceClearedOnReboot(t *testing.T) {
	kernel, c := checkerFixture(t)
	kernel.Schedule(4500*time.Millisecond, func() { staleRound(c, kernel.Now()) })
	kernel.Schedule(5*time.Second, c.audit)
	kernel.Schedule(7*time.Second, func() {
		c.Record(trace.Event{
			At: kernel.Now(), Op: trace.OpRepair, Kind: msg.KindReinforce,
			Node: 1, Peer: 2,
		})
		c.NodeRebooted(1)
	})
	kernel.Schedule(9500*time.Millisecond, func() { staleRound(c, kernel.Now()) })
	kernel.Schedule(10*time.Second, c.audit)
	kernel.Run(11 * time.Second)
	if c.ViolationCount() != 1 {
		t.Fatalf("violations = %d, want 1 (reboot cleared the repair stamp): %v",
			c.ViolationCount(), c.Violations())
	}
}
