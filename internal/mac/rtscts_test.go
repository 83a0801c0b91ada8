package mac

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/topology"
)

func rtsParams() Params { return Params{UseRTSCTS: true} }

func rtsNet(t *testing.T, seed int64, params Params, xs ...float64) (*sim.Kernel, *Network) {
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
	n := New(k, f, params)
	return k, n
}

func TestRTSCTSUnicastDelivers(t *testing.T) {
	k, n := rtsNet(t, 1, rtsParams(), 0, 30)
	var got []any
	n.SetReceiver(1, func(from topology.NodeID, f Frame) { got = append(got, f.Payload) })
	if err := n.Unicast(0, 1, Frame{Bytes: 512, Payload: "big"}); err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	if len(got) != 1 || got[0] != "big" {
		t.Fatalf("delivered %v", got)
	}
	st := n.Stats()
	if st.RtsTx != 1 || st.CtsTx != 1 || st.AckTx != 1 || st.DataTx != 1 {
		t.Fatalf("handshake counters: %+v", st)
	}
}

func TestRTSThresholdSkipsSmallFrames(t *testing.T) {
	k, n := rtsNet(t, 1, rtsParams(), 0, 30)
	n.SetReceiver(1, func(topology.NodeID, Frame) {})
	_ = n.Unicast(0, 1, Frame{Bytes: 36}) // a control message: basic access
	k.Run(time.Second)
	if st := n.Stats(); st.RtsTx != 0 {
		t.Fatalf("small frame used RTS: %+v", st)
	}
	_ = n.Unicast(0, 1, Frame{Bytes: rtsThreshold}) // at the threshold: handshake
	k.Run(2 * time.Second)
	if st := n.Stats(); st.RtsTx != 1 {
		t.Fatalf("threshold-sized frame skipped RTS: %+v", st)
	}
}

func TestBroadcastNeverUsesRTS(t *testing.T) {
	k, n := rtsNet(t, 1, rtsParams(), 0, 30)
	_ = n.Broadcast(0, Frame{Bytes: 512})
	k.Run(time.Second)
	if st := n.Stats(); st.RtsTx != 0 {
		t.Fatalf("broadcast used RTS: %+v", st)
	}
}

func TestRTSRetryOnSilentDestination(t *testing.T) {
	k, n := rtsNet(t, 1, rtsParams(), 0, 30)
	n.SetOn(1, false)
	if err := n.Unicast(0, 1, Frame{Bytes: 512}); err != nil {
		t.Fatal(err)
	}
	k.Run(5 * time.Second)
	st := n.Stats()
	if st.Drops[DropRetryExceeded] != 1 {
		t.Fatalf("silent destination not dropped: %+v", st)
	}
	// Failed handshakes burn RTS frames, not data frames.
	if st.DataTx != 0 {
		t.Fatalf("data frames sent without CTS: %+v", st)
	}
	if st.RtsTx != retryLimit+1 {
		t.Fatalf("RtsTx = %d, want %d attempts", st.RtsTx, retryLimit+1)
	}
}

// The point of RTS/CTS: hidden terminals. 0 and 2 cannot hear each other,
// both send long unicast streams to 1. With basic access the long data
// frames collide at 1; with the handshake the CTS reserves the medium, so
// clearly more frames survive.
func TestRTSCTSBeatsHiddenTerminals(t *testing.T) {
	run := func(params Params) (delivered int) {
		k, n := rtsNet(t, 7, params, 0, 30, 60)
		n.SetReceiver(1, func(topology.NodeID, Frame) { delivered++ })
		var feed func(src topology.NodeID)
		count := 0
		feed = func(src topology.NodeID) {
			if count >= 400 {
				return
			}
			count++
			_ = n.Unicast(src, 1, Frame{Bytes: 1000})
			k.Schedule(2*time.Millisecond, func() { feed(src) })
		}
		feed(0)
		feed(2)
		k.Run(10 * time.Second)
		return delivered
	}
	basic := run(Params{})
	rts := run(rtsParams())
	t.Logf("hidden-terminal deliveries: basic=%d rts/cts=%d", basic, rts)
	if rts <= basic {
		t.Fatalf("RTS/CTS (%d) did not beat basic access (%d) under hidden terminals", rts, basic)
	}
}

func TestNAVDefersThirdParties(t *testing.T) {
	// 0 - 1 - 2 in a line, all mutually... 0(0) 1(30) 2(60): 0 and 2 are
	// hidden from each other; both hear 1. When 1 runs a handshake with 0,
	// node 2 overhears the CTS and must defer (NAV) even though it cannot
	// hear 0's data frame.
	p := rtsParams()
	k, n := rtsNet(t, 3, p, 0, 30, 60)
	var delivered int
	n.SetReceiver(1, func(topology.NodeID, Frame) { delivered++ })
	// A long exchange from 0 to 1; while it runs, 2 tries to send.
	_ = n.Unicast(0, 1, Frame{Bytes: 1500})
	k.Schedule(500*time.Microsecond, func() {
		_ = n.Unicast(2, 1, Frame{Bytes: 1500})
	})
	k.Run(time.Second)
	if delivered != 2 {
		t.Fatalf("delivered %d of 2 frames; NAV failed to protect the exchange", delivered)
	}
	if n.Stats().Drops[DropRetryExceeded] != 0 {
		t.Fatalf("retry-drop under NAV protection: %+v", n.Stats())
	}
}
