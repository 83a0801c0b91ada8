package diffusion

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topology"
)

// benchRig builds a kernel, MAC, and runtime over explicit positions without
// starting periodic activity, so each benchmark injects exactly the traffic
// it measures.
func benchRig(b *testing.B, pts []geom.Point, strat Strategy, roles Roles) (*sim.Kernel, *Runtime) {
	b.Helper()
	f, err := topology.FromPositions(geom.Square(0, 0, 1000), 40, pts)
	if err != nil {
		b.Fatal(err)
	}
	k := sim.NewKernel(1)
	net := mac.New(k, f, mac.Params{})
	rt, err := New(k, net, f, DefaultParams(), strat, roles, nil)
	if err != nil {
		b.Fatal(err)
	}
	return k, rt
}

// lineRoles is the 4-node line used by the forwarding benchmarks:
// source(0) - bench node(1) - relay(2) - sink(3).
func lineRoles() Roles {
	return Roles{Sinks: []topology.NodeID{3}, Sources: []topology.NodeID{0}}
}

// BenchmarkGradientTable measures the gradient soft-state table: "refresh"
// is the steady-state hit path (an interest flood refreshing an existing
// gradient), "insert" populates a 16-neighbor table from scratch, amortized
// over the 16 inserts plus the per-interest state setup.
func BenchmarkGradientTable(b *testing.B) {
	const nbrs = 16
	b.Run("refresh", func(b *testing.B) {
		_, rt := benchRig(b, linePoints(4), firstCopyStrategy{}, lineRoles())
		n := rt.Node(1)
		st := n.state(0)
		for j := 0; j < nbrs; j++ {
			n.setGradient(st, topology.NodeID(100+j), gradExploratory)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.setGradient(st, topology.NodeID(100+i%nbrs), gradExploratory)
		}
	})
	b.Run("insert", func(b *testing.B) {
		_, rt := benchRig(b, linePoints(4), firstCopyStrategy{}, lineRoles())
		n := rt.Node(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.amnesia()
			st := n.state(0)
			for j := 0; j < nbrs; j++ {
				n.setGradient(st, topology.NodeID(100+j), gradExploratory)
			}
		}
	})
}

// BenchmarkExploratoryForward measures the relay-side exploratory flood
// path: each op delivers a previously unseen exploratory event to a relay,
// which caches an entry and schedules its single rebroadcast. Every window
// the kernel drains (firing the forwards and the resulting sink
// reinforcement cascade) and soft state is wiped, keeping tables at
// realistic post-prune sizes.
func BenchmarkExploratoryForward(b *testing.B) {
	k, rt := benchRig(b, linePoints(4), firstCopyStrategy{}, lineRoles())
	n := rt.Node(1)
	items := []msg.Item{{Source: 0, Seq: 1}}
	const window = 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.onExploratory(0, msg.Message{
			Kind: msg.KindExploratory, Interest: 0, ID: msg.MsgID(i + 1),
			Origin: 0, E: 0, Items: items, Bytes: msg.EventBytes,
		})
		if (i+1)%window == 0 {
			k.Run(k.Now() + 300*time.Millisecond)
			for id := range rt.nodes {
				rt.Amnesia(topology.NodeID(id))
			}
		}
	}
}

// BenchmarkIncCostProcess measures §4.1 incremental-cost processing at an
// on-tree node: every op delivers a strictly improving cost for one
// exploratory entry, which must refine it against local flood knowledge and
// fan it out along the data gradients.
func BenchmarkIncCostProcess(b *testing.B) {
	k, rt := benchRig(b, linePoints(4), incCostStrategy{}, lineRoles())
	n := rt.Node(1)
	st := n.state(0)
	n.setGradient(st, 2, gradData)
	const start = 1 << 30
	const window = 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.onIncCost(0, msg.Message{
			Kind: msg.KindIncCost, Interest: 0, ID: 42, Origin: 0,
			C: start - i, Bytes: msg.ControlBytes,
		})
		if (i+1)%window == 0 {
			k.Run(k.Now() + 50*time.Millisecond)
			n.setGradient(st, 2, gradData) // keep the gradient's expiry ahead of virtual time
		}
	}
}

// starPoints lays out an aggregation star: bench node 0 at the center, k
// upstream sources on a tight circle around it, and the downstream node
// k+1 within range of everyone.
func starPoints(k int) []geom.Point {
	pts := make([]geom.Point, 0, k+2)
	pts = append(pts, geom.Point{X: 500, Y: 500})
	for i := 0; i < k; i++ {
		ang := 2 * math.Pi * float64(i) / float64(k)
		pts = append(pts, geom.Point{X: 500 + 10*math.Cos(ang), Y: 500 + 10*math.Sin(ang)})
	}
	return append(pts, geom.Point{X: 525, Y: 500})
}

// BenchmarkOnTreeAggregate measures the on-tree aggregation path at an
// aggregation point merging k upstream neighbors: each op delivers one data
// message per source and ends in an early flush (set cover, cost attribute,
// one outgoing aggregate). Item slices alternate between two sets so
// contributions carried across an op boundary are always flushed before
// their backing arrays are reused — the protocol's own messages are
// immutable once handed over, and the benchmark must honor that too.
func BenchmarkOnTreeAggregate(b *testing.B) {
	for _, nbrs := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("nbrs=%d", nbrs), func(b *testing.B) {
			sources := make([]topology.NodeID, nbrs)
			for i := range sources {
				sources[i] = topology.NodeID(i + 1)
			}
			down := topology.NodeID(nbrs + 1)
			kern, rt := benchRig(b, starPoints(nbrs), firstCopyStrategy{},
				Roles{Sinks: []topology.NodeID{down}, Sources: sources})
			n := rt.Node(0)
			st := n.state(0)
			n.setGradient(st, down, gradData)
			var sets [2][][]msg.Item
			for s := range sets {
				sets[s] = make([][]msg.Item, nbrs)
				for j := range sets[s] {
					sets[s][j] = make([]msg.Item, 1)
				}
			}
			const window = 256
			op := func(i int) {
				set := sets[i%2]
				for j := 0; j < nbrs; j++ {
					src := topology.NodeID(j + 1)
					set[j][0] = msg.Item{Source: src, Seq: i + 1}
					n.onData(src, msg.Message{
						Kind: msg.KindData, Interest: 0, Origin: src,
						Items: set[j], W: 1, Bytes: msg.EventBytes,
					})
				}
				if (i+1)%window == 0 {
					kern.Run(kern.Now() + time.Second)
					for id := range rt.nodes {
						rt.Amnesia(topology.NodeID(id))
					}
					st = n.state(0)
					n.setGradient(st, down, gradData)
				}
			}
			// One full window warms the timer free list and the kernel
			// heap: each early flush leaves its Ta timer queued until the
			// window's kernel run fires it.
			for i := 0; i < window; i++ {
				op(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(window + i)
			}
		})
	}
}
