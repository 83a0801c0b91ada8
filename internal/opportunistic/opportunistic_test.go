package opportunistic

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/diffusion"
	"repro/internal/msg"
	"repro/internal/topology"
)

func TestNoReinforceDelay(t *testing.T) {
	p := diffusion.DefaultParams()
	p.ReinforceDelay = 7 * time.Second
	if d := (Strategy{}).SinkReinforceDelay(p); d != 0 {
		t.Fatalf("delay = %v, want 0 (immediate first-copy reinforcement)", d)
	}
}

func TestNoIncrementalCost(t *testing.T) {
	if (Strategy{}).UsesIncrementalCost() {
		t.Fatal("opportunistic scheme must not emit incremental cost messages")
	}
}

func TestChooseUpstreamFirstArrival(t *testing.T) {
	e := &diffusion.ExplorEntry{Copies: []diffusion.Copy{
		{Nbr: 9, E: 10, Arrival: 5},  // first but expensive
		{Nbr: 2, E: 1, Arrival: 50},  // cheapest but late
		{Nbr: 4, E: 10, Arrival: 60}, // irrelevant
	}}
	nbr, ok := Strategy{}.ChooseUpstream(e, nil)
	if !ok || nbr != 9 {
		t.Fatalf("ChooseUpstream = %d, want 9 (lowest delay, not lowest cost)", nbr)
	}
}

func TestChooseUpstreamExcludes(t *testing.T) {
	e := &diffusion.ExplorEntry{Copies: []diffusion.Copy{
		{Nbr: 9, Arrival: 5},
		{Nbr: 2, Arrival: 50},
	}}
	nbr, ok := Strategy{}.ChooseUpstream(e, map[topology.NodeID]bool{9: true})
	if !ok || nbr != 2 {
		t.Fatalf("ChooseUpstream = %d, want fallback 2", nbr)
	}
	if _, ok := (Strategy{}).ChooseUpstream(e, map[topology.NodeID]bool{9: true, 2: true}); ok {
		t.Fatal("all excluded should fail")
	}
}

func TestChooseUpstreamIgnoresIncCost(t *testing.T) {
	// An entry with only an incremental cost candidate (no flood copies)
	// offers nothing to the opportunistic rule.
	e := &diffusion.ExplorEntry{HasC: true, BestC: 1, BestCNbr: 8}
	if _, ok := (Strategy{}).ChooseUpstream(e, nil); ok {
		t.Fatal("opportunistic rule must ignore incremental cost candidates")
	}
}

func item(src topology.NodeID, seq int) msg.Item { return msg.Item{Source: src, Seq: seq} }

func TestTruncateDuplicatesOnly(t *testing.T) {
	window := []diffusion.ReceivedAgg{
		{From: 1, NewItems: []msg.Item{item(10, 1)}},
		{From: 2}, // pure duplicate
		{From: 3, NewItems: []msg.Item{item(11, 1)}},
	}
	victims := Strategy{}.Truncate(window, &diffusion.TruncateWorkspace{})
	if len(victims) != 1 || victims[0] != 2 {
		t.Fatalf("victims = %v, want [2]", victims)
	}
}

func TestTruncateMixedWindowKeepsNeighbor(t *testing.T) {
	// A neighbor that sent one duplicate and one fresh aggregate stays.
	window := []diffusion.ReceivedAgg{
		{From: 2},
		{From: 2, NewItems: []msg.Item{item(10, 2)}},
	}
	if victims := (Strategy{}).Truncate(window, &diffusion.TruncateWorkspace{}); len(victims) != 0 {
		t.Fatalf("victims = %v, want none", victims)
	}
}

func TestTruncateEmptyWindow(t *testing.T) {
	if victims := (Strategy{}).Truncate(nil, &diffusion.TruncateWorkspace{}); len(victims) != 0 {
		t.Fatalf("victims = %v for empty window", victims)
	}
}

func TestTruncateDeterministicOrder(t *testing.T) {
	window := []diffusion.ReceivedAgg{
		{From: 7},
		{From: 3},
		{From: 5},
	}
	victims := Strategy{}.Truncate(window, &diffusion.TruncateWorkspace{})
	if len(victims) != 3 || victims[0] != 3 || victims[1] != 5 || victims[2] != 7 {
		t.Fatalf("victims = %v, want sorted [3 5 7]", victims)
	}
}

// referenceTruncate is the map-based Truncate the workspace version
// replaced, kept as its oracle.
func referenceTruncate(window []diffusion.ReceivedAgg) []topology.NodeID {
	fresh := make(map[topology.NodeID]bool)
	seen := make(map[topology.NodeID]bool)
	for _, a := range window {
		seen[a.From] = true
		if len(a.NewItems) > 0 {
			fresh[a.From] = true
		}
	}
	var victims []topology.NodeID
	for nbr := range seen {
		if !fresh[nbr] {
			victims = append(victims, nbr)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	return victims
}

// randomWindow draws a truncation window over a few repeating senders, some
// of whose aggregates deliver nothing new.
func randomWindow(rng *rand.Rand) []diffusion.ReceivedAgg {
	window := make([]diffusion.ReceivedAgg, rng.Intn(12))
	if rng.Intn(10) == 0 {
		window = make([]diffusion.ReceivedAgg, 20+rng.Intn(30))
	}
	senders := 1 + rng.Intn(8)
	for i := range window {
		a := &window[i]
		a.From = topology.NodeID(100 + rng.Intn(senders))
		items := []msg.Item{item(topology.NodeID(rng.Intn(5)), rng.Intn(4))}
		if rng.Intn(3) == 0 {
			a.NewItems = items
		}
	}
	return window
}

// TestTruncateMatchesReference runs thousands of random windows through one
// reused workspace and requires the reference victims exactly.
func TestTruncateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var ws diffusion.TruncateWorkspace
	pruned := 0
	for trial := 0; trial < 5000; trial++ {
		window := randomWindow(rng)
		want := referenceTruncate(window)
		got := Strategy{}.Truncate(window, &ws)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: victims %v, want %v\nwindow %+v", trial, got, want, window)
		}
		if len(want) > 0 {
			pruned++
		}
	}
	if pruned < 1000 {
		t.Fatalf("weak draw: only %d windows pruned anyone", pruned)
	}
}

// A warmed workspace makes truncation allocation-free.
func TestTruncateWarmAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	windows := make([][]diffusion.ReceivedAgg, 30)
	for i := range windows {
		windows[i] = randomWindow(rng)
	}
	var ws diffusion.TruncateWorkspace
	run := func() {
		for _, w := range windows {
			Strategy{}.Truncate(w, &ws)
		}
	}
	run() // warm
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("warmed Truncate: %v allocs per pass, want 0", n)
	}
}
