package idealized

import (
	"testing"
	"time"

	"repro/internal/diffusion"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topology"
)

type recorder struct {
	generated []msg.Item
	delivered map[topology.NodeID][]msg.Item
	delays    []time.Duration
}

func newRecorder() *recorder {
	return &recorder{delivered: map[topology.NodeID][]msg.Item{}}
}

func (r *recorder) Generated(src topology.NodeID, it msg.Item) {
	r.generated = append(r.generated, it)
}

func (r *recorder) Delivered(sink topology.NodeID, it msg.Item, d time.Duration) {
	r.delivered[sink] = append(r.delivered[sink], it)
	r.delays = append(r.delays, d)
}

func build(t *testing.T, pts []geom.Point) (*sim.Kernel, *mac.Network, *topology.Field) {
	t.Helper()
	f, err := topology.FromPositions(geom.Square(0, 0, 1000), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	net := mac.New(k, f, mac.Params{})
	return k, net, f
}

func line(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 30}
	}
	return pts
}

func TestFloodingDeliversEverything(t *testing.T) {
	k, net, f := build(t, line(5))
	rec := newRecorder()
	fl, err := NewFlooding(k, net, f, diffusion.Roles{
		Sinks: []topology.NodeID{4}, Sources: []topology.NodeID{0},
	}, rec)
	if err != nil {
		t.Fatal(err)
	}
	fl.Start()
	k.Run(10 * time.Second)
	if len(rec.generated) == 0 {
		t.Fatal("nothing generated")
	}
	ratio := float64(len(rec.delivered[4])) / float64(len(rec.generated))
	if ratio < 0.9 {
		t.Fatalf("flooding delivered %.2f on a clean line", ratio)
	}
	// Every node rebroadcasts once per item: sends ≈ items × nodes.
	if fl.Sent() < len(rec.generated)*3 {
		t.Fatalf("flooding sent only %d messages for %d items", fl.Sent(), len(rec.generated))
	}
	// No duplicate deliveries.
	seen := map[msg.ItemKey]bool{}
	for _, it := range rec.delivered[4] {
		if seen[it.Key()] {
			t.Fatal("duplicate delivery")
		}
		seen[it.Key()] = true
	}
}

func TestFloodingValidation(t *testing.T) {
	k, net, f := build(t, line(3))
	if _, err := NewFlooding(k, net, f, diffusion.Roles{}, nil); err == nil {
		t.Fatal("empty roles accepted")
	}
}

func TestMulticastUsesOnlyTreeNodes(t *testing.T) {
	// Y topology: 0 and 1 are sinks, 2 the junction, 3 the source's relay,
	// 4 the source. The multicast tree must not touch node 5 (an idle
	// bystander in range).
	pts := []geom.Point{
		{X: 0, Y: 0},   // 0 sink A
		{X: 0, Y: 60},  // 1 sink B
		{X: 25, Y: 30}, // 2 junction
		{X: 55, Y: 30}, // 3 relay
		{X: 85, Y: 30}, // 4 source
		{X: 55, Y: 65}, // 5 bystander (in range of 3? dist=35 yes)
	}
	k, net, f := build(t, pts)
	rec := newRecorder()
	mc, err := NewMulticast(k, net, f, diffusion.Roles{
		Sinks: []topology.NodeID{0, 1}, Sources: []topology.NodeID{4},
	}, rec)
	if err != nil {
		t.Fatal(err)
	}
	mc.Start()
	k.Run(10 * time.Second)

	for _, sink := range []topology.NodeID{0, 1} {
		if len(rec.delivered[sink]) == 0 {
			t.Fatalf("sink %d received nothing", sink)
		}
	}
	// The bystander transmits nothing (overhears only).
	if net.Meter(5).TxPackets() != 0 {
		t.Fatalf("bystander transmitted %d frames", net.Meter(5).TxPackets())
	}
	// Tree efficiency: the shared junction means sends per item stays
	// below two disjoint 3-hop paths (6); tree is 4 edges.
	perItem := float64(mc.Sent()) / float64(len(rec.generated))
	if perItem > 4.5 {
		t.Fatalf("%.1f sends per item suggests no shared tree", perItem)
	}
}

func TestMulticastDisconnectedSinkFails(t *testing.T) {
	pts := append(line(3), geom.Point{X: 900, Y: 900})
	k, net, f := build(t, pts)
	if _, err := NewMulticast(k, net, f, diffusion.Roles{
		Sinks: []topology.NodeID{3}, Sources: []topology.NodeID{0},
	}, nil); err == nil {
		t.Fatal("unreachable sink accepted")
	}
}

func TestFloodingDelayBelowMulticastHops(t *testing.T) {
	// Sanity: both schemes deliver with sub-second delay on short paths.
	k, net, f := build(t, line(4))
	rec := newRecorder()
	fl, err := NewFlooding(k, net, f, diffusion.Roles{
		Sinks: []topology.NodeID{3}, Sources: []topology.NodeID{0},
	}, rec)
	if err != nil {
		t.Fatal(err)
	}
	fl.Start()
	k.Run(5 * time.Second)
	for _, d := range rec.delays {
		if d < 0 || d > time.Second {
			t.Fatalf("implausible flooding delay %v", d)
		}
	}
}
