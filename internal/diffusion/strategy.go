package diffusion

import (
	"time"

	"repro/internal/msg"
	"repro/internal/setcover"
	"repro/internal/topology"
)

// Copy records one neighbor's delivery of an exploratory event: the cheapest
// accumulated energy cost E heard from that neighbor and when its first copy
// arrived. Copies are kept in first-arrival order, so Copies[0] is the
// opportunistic scheme's "empirically lowest delay" neighbor.
type Copy struct {
	Nbr     topology.NodeID
	E       int
	Arrival time.Duration
}

// ExplorEntry is a node's cached state about one exploratory event (one
// random message id), exposed to strategies so they can choose whom to
// reinforce.
type ExplorEntry struct {
	ID     msg.MsgID
	Origin topology.NodeID // the source that generated the event
	Item   msg.Item

	// Copies lists the neighbors that delivered the flood, in first-arrival
	// order, each with its cheapest cost. Empty at the origin source and on
	// skeleton entries created by an incremental cost message that outran
	// the flood.
	Copies []Copy

	// HasE reports whether any flood copy arrived; BestE is then the lowest
	// cost over all copies (0 at the origin source).
	HasE  bool
	BestE int

	// HasC reports whether any incremental cost message referencing this
	// event arrived; BestC is the lowest C seen and BestCNbr its sender.
	HasC     bool
	BestC    int
	BestCNbr topology.NodeID

	// Chosen records the upstream neighbor this node reinforced for this
	// entry (set by the runtime after ChooseUpstream), so local repair can
	// exclude a silent choice.
	Chosen    topology.NodeID
	HasChosen bool
}

// BestCopy returns the cheapest non-excluded copy, breaking cost ties toward
// the earlier arrival (the paper's "other ties are decided in favor of the
// lowest delay").
func (e *ExplorEntry) BestCopy(exclude map[topology.NodeID]bool) (Copy, bool) {
	best, found := Copy{}, false
	for _, c := range e.Copies {
		if exclude[c.Nbr] {
			continue
		}
		if !found || c.E < best.E || (c.E == best.E && c.Arrival < best.Arrival) {
			best, found = c, true
		}
	}
	return best, found
}

// HasAlternative reports whether any recorded flood copy falls outside the
// exclusion set — whether localized repair still has a candidate before it
// must fall back to scoped re-exploration.
func (e *ExplorEntry) HasAlternative(exclude map[topology.NodeID]bool) bool {
	for i := range e.Copies {
		if !exclude[e.Copies[i].Nbr] {
			return true
		}
	}
	return false
}

// FirstCopy returns the earliest-arriving non-excluded copy.
func (e *ExplorEntry) FirstCopy(exclude map[topology.NodeID]bool) (Copy, bool) {
	for _, c := range e.Copies {
		if !exclude[c.Nbr] {
			return c, true
		}
	}
	return Copy{}, false
}

// ReceivedAgg describes one data message or aggregate received from a
// neighbor within the truncation window.
type ReceivedAgg struct {
	// From is the upstream neighbor that delivered the aggregate.
	From topology.NodeID
	// Items are the aggregate's distinct events.
	Items []msg.Item
	// W is the aggregate's energy cost attribute.
	W int
	// NewItems are the items that were not already in the data cache when
	// the aggregate arrived. An aggregate that delivered nothing new cannot
	// cover anything: duplicates (including echoes on transient gradient
	// cycles) must not let their sender survive truncation.
	NewItems []msg.Item
}

// Strategy is the pluggable policy distinguishing the paper's greedy
// aggregation from the opportunistic baseline.
type Strategy interface {
	// Name labels the scheme in reports ("greedy", "opportunistic").
	Name() string

	// SinkReinforceDelay returns how long a sink waits after the first copy
	// of a previously unseen exploratory event before reinforcing: Tp for
	// the greedy scheme, 0 for immediate opportunistic reinforcement.
	SinkReinforceDelay(p Params) time.Duration

	// ChooseUpstream picks the neighbor to reinforce for entry e, skipping
	// neighbors in exclude (used by local repair). ok is false when no
	// acceptable neighbor remains.
	ChooseUpstream(e *ExplorEntry, exclude map[topology.NodeID]bool) (nbr topology.NodeID, ok bool)

	// UsesIncrementalCost reports whether on-tree sources answer foreign
	// exploratory events with incremental cost messages.
	UsesIncrementalCost() bool

	// Truncate returns the neighbors to negatively reinforce, each once and
	// in ascending order, given the aggregates received during the last Tn
	// window from upstream neighbors. It works in ws, which the runtime
	// owns; the returned slice may alias ws and is read before the next
	// call.
	Truncate(window []ReceivedAgg, ws *TruncateWorkspace) []topology.NodeID
}

// TruncateWorkspace holds the buffers and set-cover solvers a Strategy's
// Truncate works in, so a warm truncation pass allocates nothing. Each
// Runtime owns one and hands it to every call; its contents are valid for
// that one call only. It lives in the Runtime rather than in the Strategy
// value because sharded runs share one Strategy across shard goroutines.
type TruncateWorkspace struct {
	Victims []topology.NodeID // the result
	Keys    []msg.ItemKey     // the event family's elements, back to back
	Sources []topology.NodeID // the source family's elements, or any node set

	Events   []setcover.Subset[msg.ItemKey]
	BySource []setcover.Subset[topology.NodeID]

	EventCover  setcover.Solver[msg.ItemKey]
	SourceCover setcover.Solver[topology.NodeID]
}
