// Package opportunistic implements the paper's baseline: the original
// directed-diffusion instantiation that builds a low-latency tree and
// aggregates only where paths happen to overlap.
//
// Its local rules (§4.1, §4.3):
//
//   - A sink (and, transitively, every reinforced node) reinforces the
//     neighbor from which it first received a previously unseen exploratory
//     event — the empirically lowest-delay path. No reinforcement timer.
//   - On-tree sources do not emit incremental cost messages; there is no
//     notion of cost-to-tree.
//   - Negative reinforcement degrades neighbors that delivered no new
//     events within the window Tn (only duplicates), the original
//     diffusion truncation rule.
package opportunistic

import (
	"slices"
	"time"

	"repro/internal/diffusion"
	"repro/internal/topology"
)

// Strategy is the opportunistic-aggregation policy. The zero value is ready
// to use.
type Strategy struct{}

var _ diffusion.Strategy = Strategy{}

// Name implements diffusion.Strategy.
func (Strategy) Name() string { return "opportunistic" }

// SinkReinforceDelay implements diffusion.Strategy: reinforcement is
// immediate on the first copy.
func (Strategy) SinkReinforceDelay(diffusion.Params) time.Duration { return 0 }

// UsesIncrementalCost implements diffusion.Strategy.
func (Strategy) UsesIncrementalCost() bool { return false }

// ChooseUpstream implements diffusion.Strategy: reinforce the neighbor that
// delivered the first (lowest-delay) copy of the exploratory event.
func (Strategy) ChooseUpstream(e *diffusion.ExplorEntry, exclude map[topology.NodeID]bool) (topology.NodeID, bool) {
	c, ok := e.FirstCopy(exclude)
	if !ok {
		return 0, false
	}
	return c.Nbr, true
}

// Truncate implements diffusion.Strategy: degrade neighbors whose window
// delivered no previously unseen events. Windows hold tens of aggregates,
// so membership tests are scans over ws.
func (Strategy) Truncate(window []diffusion.ReceivedAgg, ws *diffusion.TruncateWorkspace) []topology.NodeID {
	fresh := ws.Sources[:0]
	for _, a := range window {
		if len(a.NewItems) > 0 && !slices.Contains(fresh, a.From) {
			fresh = append(fresh, a.From)
		}
	}
	victims := ws.Victims[:0]
	for _, a := range window {
		if !slices.Contains(fresh, a.From) && !slices.Contains(victims, a.From) {
			victims = append(victims, a.From)
		}
	}
	slices.Sort(victims)
	ws.Sources, ws.Victims = fresh, victims
	return victims
}
