package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/diffusion"
	"repro/internal/msg"
	"repro/internal/setcover"
	"repro/internal/topology"
)

func TestSinkReinforceDelayIsTp(t *testing.T) {
	p := diffusion.DefaultParams()
	p.ReinforceDelay = 1250 * time.Millisecond
	if d := (Strategy{}).SinkReinforceDelay(p); d != p.ReinforceDelay {
		t.Fatalf("delay = %v, want Tp = %v", d, p.ReinforceDelay)
	}
}

func TestUsesIncrementalCost(t *testing.T) {
	if !(Strategy{}).UsesIncrementalCost() {
		t.Fatal("greedy scheme must emit incremental cost messages")
	}
}

func TestChooseUpstreamLowestCost(t *testing.T) {
	e := &diffusion.ExplorEntry{
		Copies: []diffusion.Copy{
			{Nbr: 9, E: 10, Arrival: 5}, // first arrival, expensive
			{Nbr: 2, E: 4, Arrival: 50}, // cheapest exploratory
		},
		HasE: true, BestE: 4,
	}
	nbr, ok := Strategy{}.ChooseUpstream(e, nil)
	if !ok || nbr != 2 {
		t.Fatalf("ChooseUpstream = %d, want 2 (lowest energy, not lowest delay)", nbr)
	}
}

func TestChooseUpstreamPrefersCheaperIncCost(t *testing.T) {
	e := &diffusion.ExplorEntry{
		Copies: []diffusion.Copy{{Nbr: 2, E: 6, Arrival: 10}},
		HasE:   true, BestE: 6,
		HasC: true, BestC: 3, BestCNbr: 7,
	}
	nbr, ok := Strategy{}.ChooseUpstream(e, nil)
	if !ok || nbr != 7 {
		t.Fatalf("ChooseUpstream = %d, want 7 (C=3 beats E=6)", nbr)
	}
}

func TestChooseUpstreamTieFavorsExploratory(t *testing.T) {
	// §4.1: "If the energy cost of an exploratory event and the incremental
	// cost message are equivalent, the sink reinforces the neighboring node
	// that sent the exploratory event."
	e := &diffusion.ExplorEntry{
		Copies: []diffusion.Copy{{Nbr: 2, E: 3, Arrival: 10}},
		HasE:   true, BestE: 3,
		HasC: true, BestC: 3, BestCNbr: 7,
	}
	nbr, ok := Strategy{}.ChooseUpstream(e, nil)
	if !ok || nbr != 2 {
		t.Fatalf("ChooseUpstream = %d, want 2 (tie goes to exploratory)", nbr)
	}
}

func TestChooseUpstreamCostTieFavorsLowerDelay(t *testing.T) {
	// "Other ties are decided in favor of the lowest delay."
	e := &diffusion.ExplorEntry{
		Copies: []diffusion.Copy{
			{Nbr: 5, E: 3, Arrival: 40},
			{Nbr: 6, E: 3, Arrival: 10},
		},
		HasE: true, BestE: 3,
	}
	nbr, ok := Strategy{}.ChooseUpstream(e, nil)
	if !ok || nbr != 6 {
		t.Fatalf("ChooseUpstream = %d, want 6 (earlier arrival)", nbr)
	}
}

func TestChooseUpstreamExclusionFallsBack(t *testing.T) {
	e := &diffusion.ExplorEntry{
		Copies: []diffusion.Copy{
			{Nbr: 2, E: 4, Arrival: 50},
			{Nbr: 9, E: 10, Arrival: 5},
		},
		HasE: true, BestE: 4,
		HasC: true, BestC: 1, BestCNbr: 7,
	}
	// Exclude the inc-cost neighbor: fall back to best exploratory.
	nbr, ok := Strategy{}.ChooseUpstream(e, map[topology.NodeID]bool{7: true})
	if !ok || nbr != 2 {
		t.Fatalf("ChooseUpstream = %d, want 2", nbr)
	}
	// Exclude everything: fail.
	if _, ok := (Strategy{}).ChooseUpstream(e, map[topology.NodeID]bool{2: true, 7: true, 9: true}); ok {
		t.Fatal("all excluded should fail")
	}
}

func TestChooseUpstreamIncCostOnly(t *testing.T) {
	e := &diffusion.ExplorEntry{HasC: true, BestC: 2, BestCNbr: 8}
	nbr, ok := Strategy{}.ChooseUpstream(e, nil)
	if !ok || nbr != 8 {
		t.Fatalf("ChooseUpstream = %d, want 8 (skeleton entry, C candidate only)", nbr)
	}
}

func it(src topology.NodeID, seq int) msg.Item { return msg.Item{Source: src, Seq: seq} }

// TestTruncatePaperExample reproduces Figure 4(b): after the source
// transform, G's aggregate alone covers sources {A, B} at the best ratio, so
// H and K are negatively reinforced.
func TestTruncatePaperExample(t *testing.T) {
	const (
		gNbr = topology.NodeID(101)
		hNbr = topology.NodeID(102)
		kNbr = topology.NodeID(103)
		srcA = topology.NodeID(1)
		srcB = topology.NodeID(2)
	)
	window := []diffusion.ReceivedAgg{
		{ // S1 = {a1, a2, b1}, w=5 (from G)
			From:     gNbr,
			NewItems: []msg.Item{it(srcA, 1), it(srcA, 2), it(srcB, 1)},
			W:        5,
		},
		{ // S2 = {b1, b2}, w=6 (from H)
			From:     hNbr,
			NewItems: []msg.Item{it(srcB, 1), it(srcB, 2)},
			W:        6,
		},
		{ // S3 = {a2, b2}, w=7 (from K)
			From:     kNbr,
			NewItems: []msg.Item{it(srcA, 2), it(srcB, 2)},
			W:        7,
		},
	}
	victims := Strategy{}.Truncate(window, &diffusion.TruncateWorkspace{})
	if len(victims) != 2 || victims[0] != hNbr || victims[1] != kNbr {
		t.Fatalf("victims = %v, want [H K] = [%d %d]", victims, hNbr, kNbr)
	}
}

func TestTruncateDuplicateOnlyNeighborPruned(t *testing.T) {
	// A neighbor whose aggregates were all duplicates (echoes) covers
	// nothing and must be pruned even if its W is attractive.
	window := []diffusion.ReceivedAgg{
		{From: 1, NewItems: []msg.Item{it(10, 1)}, W: 9},
		{From: 2, W: 1}, // duplicate, cheap
	}
	victims := Strategy{}.Truncate(window, &diffusion.TruncateWorkspace{})
	if len(victims) != 1 || victims[0] != 2 {
		t.Fatalf("victims = %v, want [2]", victims)
	}
}

func TestTruncateSingleUpstreamKept(t *testing.T) {
	window := []diffusion.ReceivedAgg{
		{From: 4, NewItems: []msg.Item{it(10, 1)}, W: 3},
	}
	if victims := (Strategy{}).Truncate(window, &diffusion.TruncateWorkspace{}); len(victims) != 0 {
		t.Fatalf("victims = %v, want none for a single useful upstream", victims)
	}
}

func TestTruncateEmptyWindow(t *testing.T) {
	if victims := (Strategy{}).Truncate(nil, &diffusion.TruncateWorkspace{}); len(victims) != 0 {
		t.Fatalf("victims = %v for empty window", victims)
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeGreedy.String() != "greedy" || SchemeOpportunistic.String() != "opportunistic" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(0).String() != "scheme(0)" {
		t.Fatal("unknown scheme formatting wrong")
	}
	if _, err := Scheme(0).Strategy(); err == nil {
		t.Fatal("unknown scheme should not yield a strategy")
	}
}

// referenceTruncate is the map-based Truncate the workspace version
// replaced, kept as its oracle. Its set covers go through the one-shot
// setcover.Greedy and TransformToSources, which own fresh state per call.
func referenceTruncate(s Strategy, window []diffusion.ReceivedAgg) []topology.NodeID {
	family := make([]setcover.Subset[msg.ItemKey], len(window))
	for i, a := range window {
		keys := make([]msg.ItemKey, len(a.NewItems))
		for j, it := range a.NewItems {
			keys[j] = it.Key()
		}
		family[i] = setcover.Subset[msg.ItemKey]{
			Label:    int(a.From),
			Elements: keys,
			Weight:   float64(a.W),
		}
	}

	var inCover map[topology.NodeID]bool
	if s.TruncateOnEvents {
		inCover = referenceCoverLabels(family)
	} else {
		bySource, _ := setcover.TransformToSources(nil, nil, family, func(k msg.ItemKey) topology.NodeID {
			return k.Source
		})
		inCover = referenceCoverLabels(bySource)
	}

	seen := make(map[topology.NodeID]bool)
	var victims []topology.NodeID
	for _, a := range window {
		if !seen[a.From] {
			seen[a.From] = true
			if !inCover[a.From] {
				victims = append(victims, a.From)
			}
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	return victims
}

func referenceCoverLabels[E comparable](family []setcover.Subset[E]) map[topology.NodeID]bool {
	universe := make(map[E]bool)
	var univ []E
	for _, s := range family {
		for _, e := range s.Elements {
			if !universe[e] {
				universe[e] = true
				univ = append(univ, e)
			}
		}
	}
	cover, err := setcover.Greedy(univ, family)
	if err != nil {
		panic(err)
	}
	in := make(map[topology.NodeID]bool, len(cover.Chosen))
	for _, idx := range cover.Chosen {
		in[topology.NodeID(family[idx].Label)] = true
	}
	return in
}

// randomWindow draws a truncation window over a few senders and sources:
// senders repeat, some aggregates deliver nothing new, items recur across
// aggregates and weights tie often.
func randomWindow(rng *rand.Rand) []diffusion.ReceivedAgg {
	window := make([]diffusion.ReceivedAgg, rng.Intn(12))
	if rng.Intn(10) == 0 {
		window = make([]diffusion.ReceivedAgg, 20+rng.Intn(30))
	}
	senders := 1 + rng.Intn(6)
	for i := range window {
		a := &window[i]
		a.From = topology.NodeID(100 + rng.Intn(senders))
		a.W = rng.Intn(6)
		if rng.Intn(20) == 0 {
			a.W = 1 << 20
		}
		items := make([]msg.Item, 1+rng.Intn(5))
		for j := range items {
			items[j] = it(topology.NodeID(rng.Intn(5)), rng.Intn(4))
		}
		if rng.Intn(4) > 0 {
			a.NewItems = items[:rng.Intn(len(items)+1)]
		}
	}
	return window
}

// TestTruncateMatchesReference runs thousands of random windows through one
// reused workspace, for both truncation rules, and requires the reference
// victims exactly.
func TestTruncateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var ws diffusion.TruncateWorkspace
	pruned := 0
	for trial := 0; trial < 5000; trial++ {
		window := randomWindow(rng)
		for _, s := range []Strategy{{}, {TruncateOnEvents: true}} {
			want := referenceTruncate(s, window)
			got := s.Truncate(window, &ws)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d %+v: victims %v, want %v\nwindow %+v", trial, s, got, want, window)
			}
			if len(want) > 0 {
				pruned++
			}
		}
	}
	if pruned < 2000 {
		t.Fatalf("weak draw: only %d windows pruned anyone", pruned)
	}
}

// A warmed workspace makes truncation allocation-free under both rules.
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
			Strategy{TruncateOnEvents: true}.Truncate(w, &ws)
		}
	}
	run() // warm
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("warmed Truncate: %v allocs per pass, want 0", n)
	}
}
