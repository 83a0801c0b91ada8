package diffusion

import (
	"repro/internal/msg"
	"repro/internal/obs"
)

// Counters are the protocol-level counts a Runtime keeps for telemetry.
// Counting is always on and draws no randomness, so runs stay bit-for-bit
// identical whether or not anything reads them.
type Counters struct {
	// GradientHits counts gradient refreshes, GradientMisses gradient
	// installs.
	GradientHits, GradientMisses int
	// ExploratoryFloods counts exploratory event originations.
	ExploratoryFloods int
	// IncCostSent and ReinforceSent count incremental-cost and
	// reinforcement unicasts.
	IncCostSent, ReinforceSent int
	// TruncationPrunes counts the victims of every truncation pass.
	TruncationPrunes int
	// SetCoverInput observes the subset count of every greedy set-cover
	// invocation; its Count is the number of invocations.
	SetCoverInput obs.Histogram
	// CascadeLen observes, per (interest, exploratory entry), how many
	// reinforcements it sent: each sink decision propagates hop by hop up
	// the path, so that count is the cascade's length.
	CascadeLen obs.Histogram
}

type cascadeKey struct {
	iid msg.InterestID
	id  msg.MsgID
}

// Counters returns the runtime's protocol counts, with CascadeLen filled
// from the cascades recorded so far. Bucket counts, and sums of integer
// lengths, do not depend on the order entries are observed in, so the map
// walk is deterministic in effect.
func (rt *Runtime) Counters() Counters {
	c := rt.count
	for _, n := range rt.cascades {
		c.CascadeLen.Observe(float64(n))
	}
	return c
}
