package mac

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Property: under arbitrary random traffic (broadcast/unicast mixes, random
// sizes, random topologies, node failures), the MAC never wedges — every
// queue drains — and its byte accounting is exact.
func TestPropertyMACNeverWedges(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := rng.Intn(25) + 5
		f, err := topology.Generate(topology.Config{
			Area: geom.Square(0, 0, 120), Nodes: nodes, Range: 50,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel(seed)
		params := Params{UseRTSCTS: seed%2 == 1}
		net := New(k, f, params)
		for i := 0; i < nodes; i++ {
			net.SetReceiver(topology.NodeID(i), func(topology.NodeID, Frame) {})
		}

		submitted := 0
		for i := 0; i < 300; i++ {
			from := topology.NodeID(rng.Intn(nodes))
			size := rng.Intn(900) + 10
			at := time.Duration(rng.Int63n(int64(2 * time.Second)))
			k.Schedule(at-k.Now(), func() {
				if rng.Intn(4) == 0 {
					to := topology.NodeID(rng.Intn(nodes))
					if to != from {
						_ = net.Unicast(from, to, Frame{Bytes: size})
					}
					return
				}
				_ = net.Broadcast(from, Frame{Bytes: size})
			})
			submitted++
		}
		// A few failure flaps for good measure.
		for i := 0; i < 5; i++ {
			id := topology.NodeID(rng.Intn(nodes))
			at := time.Duration(rng.Int63n(int64(2 * time.Second)))
			k.Schedule(at-k.Now(), func() { net.SetOn(id, false) })
			k.Schedule(at+300*time.Millisecond-k.Now(), func() { net.SetOn(id, true) })
		}

		k.Run(30 * time.Second)
		if pending := k.Pending(); pending > 0 {
			// Drain any periodic artifacts; the MAC itself schedules no
			// periodic events, so the queue must be empty.
			t.Fatalf("seed %d: %d kernel events still pending after quiescence", seed, pending)
		}
		st := net.Stats()
		if st.DataTx+st.AckTx+st.RtsTx+st.CtsTx == 0 && submitted > 0 {
			t.Fatalf("seed %d: no frames on air despite %d submissions", seed, submitted)
		}
		// Energy meters are consistent with frame counters: every charged
		// transmit corresponds to a frame the stats saw.
		var txPackets int
		for i := 0; i < nodes; i++ {
			txPackets += net.Meter(topology.NodeID(i)).TxPackets()
		}
		if want := st.DataTx + st.AckTx + st.RtsTx + st.CtsTx; txPackets != want {
			t.Fatalf("seed %d: meters charged %d transmits, stats saw %d", seed, txPackets, want)
		}
	}
}

// Property: receive energy scales with density — the physical mechanism
// behind the paper's density axis. Broadcasting the same traffic in a
// denser field dissipates strictly more total energy.
func TestPropertyOverhearingScalesWithDensity(t *testing.T) {
	totalComm := func(nodes int) float64 {
		rng := rand.New(rand.NewSource(3))
		f, err := topology.Generate(topology.Config{
			Area: geom.Square(0, 0, 200), Nodes: nodes, Range: 40,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel(3)
		net := New(k, f, Params{})
		for i := 0; i < 50; i++ {
			i := i
			k.Schedule(time.Duration(i)*50*time.Millisecond-k.Now(), func() {
				_ = net.Broadcast(topology.NodeID(i%10), Frame{Bytes: 64})
			})
		}
		k.Run(10 * time.Second)
		var sum float64
		for i := 0; i < nodes; i++ {
			sum += net.Meter(topology.NodeID(i)).CommJoules()
		}
		return sum
	}
	sparse, dense := totalComm(60), totalComm(300)
	if dense <= sparse {
		t.Fatalf("density did not raise overhearing cost: sparse %.6g, dense %.6g", sparse, dense)
	}
}
