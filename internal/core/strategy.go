// Package core implements the paper's contribution — greedy aggregation —
// and the top-level experiment API the examples and benchmarks use.
//
// Greedy aggregation is a directed-diffusion instantiation that constructs
// a greedy incremental tree (GIT): the first source reaches the sink over a
// lowest-energy path, and every later source is grafted onto the existing
// tree at its closest point. The grafting works through three local rules
// (§4 of the paper):
//
//  1. Exploratory events accumulate an energy cost E hop by hop. Sources
//     already on the tree answer a foreign exploratory event with an
//     incremental cost message whose cost C is refined (only downward) with
//     each on-tree node's own E as it travels down the tree to the sink.
//  2. A sink waits Tp after the first copy, then reinforces whichever
//     neighbor offered the lowest cost — an exploratory copy (E) or an
//     incremental cost message (C). Ties favor the exploratory copy; other
//     ties favor lower delay. Every reinforced node applies the same rule
//     immediately, so reinforcement retraces the tree to the cheapest
//     junction and then follows the flood's reverse path to the new source.
//  3. Aggregate costs are computed with a greedy weighted set cover (§4.2),
//     and path truncation (§4.3) runs the same set cover over *sources*
//     (weights rescaled by |S*|/|S|), negatively reinforcing every neighbor
//     whose aggregates are not in the cover.
package core

import (
	"slices"
	"time"

	"repro/internal/diffusion"
	"repro/internal/msg"
	"repro/internal/setcover"
	"repro/internal/topology"
)

// Strategy is the greedy-aggregation policy. The zero value is the paper's
// preferred configuration.
type Strategy struct {
	// TruncateOnEvents selects §4.3's "direct" (conservative) truncation
	// rule, which computes the set cover over events rather than sources.
	// The paper argues — with the Figure 4 example — that the source
	// transform prunes more aggressively and saves more energy; this flag
	// exists to reproduce that ablation.
	TruncateOnEvents bool
}

var _ diffusion.Strategy = Strategy{}

// Name implements diffusion.Strategy.
func (s Strategy) Name() string {
	if s.TruncateOnEvents {
		return "greedy-eventcover"
	}
	return "greedy"
}

// SinkReinforceDelay implements diffusion.Strategy: the sink arms a timer of
// Tp so incremental cost messages can compete with the raw flood before it
// commits to a neighbor.
func (Strategy) SinkReinforceDelay(p diffusion.Params) time.Duration { return p.ReinforceDelay }

// UsesIncrementalCost implements diffusion.Strategy.
func (Strategy) UsesIncrementalCost() bool { return true }

// ChooseUpstream implements diffusion.Strategy: pick the lowest-cost
// neighbor between the best exploratory copy (cost E) and the best
// incremental cost message (cost C). A tie goes to the exploratory copy —
// at the tree junction E equals the C it produced, and choosing the
// exploratory side is what peels reinforcement off the tree toward the new
// source.
func (Strategy) ChooseUpstream(e *diffusion.ExplorEntry, exclude map[topology.NodeID]bool) (topology.NodeID, bool) {
	copyBest, hasCopy := e.BestCopy(exclude)
	hasC := e.HasC && !exclude[e.BestCNbr]
	switch {
	case hasCopy && hasC:
		if e.BestC < copyBest.E {
			return e.BestCNbr, true
		}
		return copyBest.Nbr, true
	case hasCopy:
		return copyBest.Nbr, true
	case hasC:
		return e.BestCNbr, true
	default:
		return 0, false
	}
}

// Truncate implements diffusion.Strategy: transform each received aggregate
// from events to sources (preserving cost ratios), compute the greedy
// set cover of the sources, and negatively reinforce every neighbor none of
// whose aggregates made the cover (§4.3's "more energy-efficient rule").
// Windows hold tens of aggregates, so membership tests are scans over ws.
func (s Strategy) Truncate(window []diffusion.ReceivedAgg, ws *diffusion.TruncateWorkspace) []topology.NodeID {
	// Only items that were new on arrival count: an aggregate that
	// delivered nothing unseen (a redundant branch or a transient echo)
	// covers nothing and its sender must not survive on it. One flat key
	// buffer, sized up front, backs every subset.
	n := 0
	for i := range window {
		n += len(window[i].NewItems)
	}
	keys := slices.Grow(ws.Keys[:0], n)
	family := ws.Events[:0]
	for _, a := range window {
		start := len(keys)
		for _, it := range a.NewItems {
			keys = append(keys, it.Key())
		}
		family = append(family, setcover.Subset[msg.ItemKey]{
			Label:    int(a.From),
			Elements: keys[start:len(keys):len(keys)],
			Weight:   float64(a.W),
		})
	}
	ws.Keys, ws.Events = keys, family

	// Each cover's universe is every element of its family: a flat buffer
	// lists them subset by subset, and the solver keeps the first
	// occurrence of each. Both families carry the same labels at the same
	// indexes, so chosen indexes read labels from either.
	var chosen []int
	if s.TruncateOnEvents {
		chosen = cover(&ws.EventCover, keys, family)
	} else {
		ws.BySource, ws.Sources = setcover.TransformToSources(ws.BySource[:0], ws.Sources[:0], family, itemSource)
		chosen = cover(&ws.SourceCover, ws.Sources, ws.BySource)
	}

	victims := ws.Victims[:0]
	for _, a := range window {
		if !slices.Contains(victims, a.From) && !chosenLabel(family, chosen, a.From) {
			victims = append(victims, a.From)
		}
	}
	slices.Sort(victims)
	ws.Victims = victims
	return victims
}

func itemSource(k msg.ItemKey) topology.NodeID { return k.Source }

// cover runs the greedy set cover of universe by family and returns the
// chosen family indexes, valid until sv's next call.
func cover[E comparable](sv *setcover.Solver[E], universe []E, family []setcover.Subset[E]) []int {
	c, err := sv.Solve(universe, family)
	if err != nil {
		panic(err) // weights are non-negative by construction
	}
	return c.Chosen
}

// chosenLabel reports whether nbr labels any chosen subset of family.
func chosenLabel(family []setcover.Subset[msg.ItemKey], chosen []int, nbr topology.NodeID) bool {
	for _, i := range chosen {
		if family[i].Label == int(nbr) {
			return true
		}
	}
	return false
}
