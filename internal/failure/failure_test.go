package failure

import (
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testNet(t *testing.T, n int) (*sim.Kernel, *mac.Network) {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i%20) * 10, Y: float64(i/20) * 10}
	}
	f, err := topology.FromPositions(geom.Square(0, 0, 500), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	net := mac.New(k, f, mac.Params{})
	return k, net
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultConfig().Fraction != 0.20 || DefaultConfig().Wave != 30*time.Second {
		t.Fatalf("paper defaults wrong: %+v", DefaultConfig())
	}
	bad := []Config{
		{Fraction: -0.1, Wave: time.Second},
		{Fraction: 1.0, Wave: time.Second},
		{Fraction: 0.2, Wave: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestWaveFailsRequestedFraction(t *testing.T) {
	k, net := testNet(t, 100)
	s, err := New(k, net, 100, Config{Fraction: 0.2, Wave: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	down := 0
	for i := 0; i < 100; i++ {
		if !net.On(topology.NodeID(i)) {
			down++
		}
	}
	if down != 20 {
		t.Fatalf("%d nodes down, want 20", down)
	}
	if len(s.Down()) != 20 {
		t.Fatalf("Down() reports %d", len(s.Down()))
	}
}

func TestWavesRotate(t *testing.T) {
	k, net := testNet(t, 100)
	s, err := New(k, net, 100, Config{Fraction: 0.2, Wave: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	first := map[topology.NodeID]bool{}
	for _, id := range s.Down() {
		first[id] = true
	}
	k.Run(15 * time.Second) // second wave at t=10
	if s.Waves() != 2 {
		t.Fatalf("Waves = %d, want 2", s.Waves())
	}
	// Still exactly 20 down, previous wave revived.
	down := 0
	same := 0
	for i := 0; i < 100; i++ {
		if !net.On(topology.NodeID(i)) {
			down++
			if first[topology.NodeID(i)] {
				same++
			}
		}
	}
	if down != 20 {
		t.Fatalf("%d down after second wave", down)
	}
	if same == 20 {
		t.Fatal("second wave identical to first; no rotation")
	}
}

func TestProtectedNodesNeverFail(t *testing.T) {
	k, net := testNet(t, 100)
	protect := []topology.NodeID{0, 1, 2, 3, 4}
	s, err := New(k, net, 100, Config{Fraction: 0.5, Wave: time.Second, Protect: protect})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for wave := 0; wave < 20; wave++ {
		for _, id := range protect {
			if !net.On(id) {
				t.Fatalf("protected node %d failed in wave %d", id, wave)
			}
		}
		k.Run(k.Now() + time.Second)
	}
}

func TestUpTimeAccounting(t *testing.T) {
	k, net := testNet(t, 10)
	// Fail exactly half the nodes (protecting none) for the whole run by
	// using a wave as long as the run.
	s, err := New(k, net, 10, Config{Fraction: 0.5, Wave: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.Run(100 * time.Second)
	s.Finish()
	for i := 0; i < 10; i++ {
		up := net.Meter(topology.NodeID(i)).UpTime()
		if net.On(topology.NodeID(i)) {
			if up != 100*time.Second {
				t.Fatalf("on node %d up-time %v, want 100s", i, up)
			}
		} else if up != 0 {
			t.Fatalf("failed-at-zero node %d up-time %v, want 0", i, up)
		}
	}
}

func TestUpTimeSplitAcrossWaves(t *testing.T) {
	k, net := testNet(t, 100)
	s, err := New(k, net, 100, Config{Fraction: 0.2, Wave: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.Run(300 * time.Second)
	s.Finish()
	var total time.Duration
	for i := 0; i < 100; i++ {
		total += net.Meter(topology.NodeID(i)).UpTime()
	}
	// Expectation: 80% of 100 nodes × 300 s = 24000 s.
	want := 0.8 * 100 * 300
	got := total.Seconds()
	if math.Abs(got-want) > want*0.05 {
		t.Fatalf("total up-time %.0fs, want ≈%.0fs", got, want)
	}
}

func TestZeroFractionIsNoop(t *testing.T) {
	k, net := testNet(t, 10)
	s, err := New(k, net, 10, Config{Fraction: 0, Wave: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.Run(10 * time.Second)
	s.Finish()
	for i := 0; i < 10; i++ {
		if !net.On(topology.NodeID(i)) {
			t.Fatal("node failed under zero fraction")
		}
		if up := net.Meter(topology.NodeID(i)).UpTime(); up != 10*time.Second {
			t.Fatalf("up-time %v, want 10s", up)
		}
	}
	if s.Waves() != 0 {
		t.Fatal("waves scheduled under zero fraction")
	}
}

func TestKillIsPermanent(t *testing.T) {
	k, net := testNet(t, 100)
	s, err := New(k, net, 100, Config{Fraction: 0.2, Wave: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Kill(7)
	s.Kill(7) // idempotent
	if net.On(7) {
		t.Fatal("killed node still on")
	}
	k.Run(60 * time.Second) // many waves
	if net.On(7) {
		t.Fatal("killed node revived by a wave")
	}
	if got := s.Killed(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Killed = %v", got)
	}
	s.Finish()
	// Up-time closed at the kill instant (t=0).
	if up := net.Meter(7).UpTime(); up != 0 {
		t.Fatalf("killed-at-zero node has up-time %v", up)
	}
}

func TestKillWhileWaveFailed(t *testing.T) {
	k, net := testNet(t, 10)
	s, err := New(k, net, 10, Config{Fraction: 0.5, Wave: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	victim := s.Down()[0]
	s.Kill(victim) // node already off from the wave
	k.Run(30 * time.Second)
	if net.On(victim) {
		t.Fatal("node killed while wave-failed was revived")
	}
}

func TestWaveSizeShrinksAfterKills(t *testing.T) {
	k, net := testNet(t, 100)
	s, err := New(k, net, 100, Config{Fraction: 0.2, Wave: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if len(s.Down()) != 20 {
		t.Fatalf("first wave %d, want 20", len(s.Down()))
	}
	// Halve the living population; the next wave must fail 20% of the
	// survivors, not 20% of the original field.
	killed := 0
	for i := 0; i < 100 && killed < 50; i++ {
		s.Kill(topology.NodeID(i))
		killed++
	}
	k.Run(15 * time.Second) // second wave at t=10
	if got := len(s.Down()); got != 10 {
		t.Fatalf("wave after 50 kills failed %d nodes, want int(0.2*50)=10", got)
	}
}

// TestKillMidWaveExactUpTime pins the accounting across a kill/wave
// interleaving: a node killed mid-wave while still powered on accrues
// exactly the time until the kill; a node killed while wave-failed accrues
// exactly the time until the wave took it down.
func TestKillMidWaveExactUpTime(t *testing.T) {
	k, net := testNet(t, 10)
	s, err := New(k, net, 10, Config{Fraction: 0.5, Wave: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start() // wave 1 at t=0: five nodes down
	var waveVictim, liveVictim topology.NodeID = -1, -1
	down := map[topology.NodeID]bool{}
	for _, id := range s.Down() {
		down[id] = true
	}
	for i := 0; i < 10; i++ {
		id := topology.NodeID(i)
		if down[id] && waveVictim < 0 {
			waveVictim = id
		}
		if !down[id] && liveVictim < 0 {
			liveVictim = id
		}
	}
	k.Schedule(3*time.Second, func() {
		s.Kill(waveVictim) // off since t=0: up-time must stay 0
		s.Kill(liveVictim) // on until now: up-time must be exactly 3 s
	})
	k.Run(20 * time.Second) // several waves churn past the kills
	s.Finish()
	if net.On(waveVictim) || net.On(liveVictim) {
		t.Fatal("killed node revived by a later wave")
	}
	if up := net.Meter(waveVictim).UpTime(); up != 0 {
		t.Fatalf("wave-failed victim up-time %v, want 0", up)
	}
	if up := net.Meter(liveVictim).UpTime(); up != 3*time.Second {
		t.Fatalf("live victim up-time %v, want exactly 3s", up)
	}
}

// TestFailReviveAccounting covers the chaos layer's crash path: explicit
// Fail/Revive cycles with exact up-time bookkeeping, idempotent edges, and
// no revival of the permanently dead.
func TestFailReviveAccounting(t *testing.T) {
	k, net := testNet(t, 4)
	s, err := New(k, net, 4, Config{Fraction: 0, Wave: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start() // zero fraction: no waves interfere
	k.Schedule(10*time.Second, func() { s.Fail(3); s.Fail(3) })
	k.Schedule(25*time.Second, func() { s.Revive(3); s.Revive(3) })
	k.Schedule(40*time.Second, func() { s.Kill(3) })
	k.Schedule(50*time.Second, func() { s.Revive(3) }) // dead stays dead
	k.Run(60 * time.Second)
	s.Finish()
	if net.On(3) {
		t.Fatal("Revive resurrected a killed node")
	}
	// Up 0-10 and 25-40: exactly 25 s.
	if up := net.Meter(3).UpTime(); up != 25*time.Second {
		t.Fatalf("up-time %v, want exactly 25s", up)
	}
}

func TestOnWaveHook(t *testing.T) {
	k, net := testNet(t, 100)
	s, err := New(k, net, 100, Config{Fraction: 0.2, Wave: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	s.SetOnWave(func(down []topology.NodeID) { sizes = append(sizes, len(down)) })
	s.Start()
	k.Run(25 * time.Second) // waves at 0, 10, 20
	if len(sizes) != 3 {
		t.Fatalf("hook fired %d times, want 3", len(sizes))
	}
	for i, n := range sizes {
		if n != 20 {
			t.Fatalf("wave %d size %d, want 20", i, n)
		}
	}
}
