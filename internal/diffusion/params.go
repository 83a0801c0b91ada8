// Package diffusion implements the directed-diffusion substrate both
// aggregation schemes run on: interest flooding and exploratory gradients,
// exploratory events, data caches, reinforcement and negative reinforcement
// plumbing, aggregation buffering, and local path repair.
//
// The two instantiations the paper compares differ only in a Strategy:
// when and whom to reinforce, whether on-tree sources emit incremental cost
// messages, and how path truncation picks victims. The opportunistic
// baseline lives in package opportunistic; the paper's greedy aggregation
// lives in package core.
package diffusion

import (
	"fmt"
	"time"

	"repro/internal/agg"
)

// The protocol's fixed timing: the paper's §5.1 methodology, with the OCR
// reconstruction documented in DESIGN.md §2. No figure varies these; the
// settings the figures sweep are the Params fields.
const (
	// interestPeriod is how often each sink re-floods its interest
	// (paper: 5 s).
	interestPeriod = 5 * time.Second
	// exploratoryGradientTimeout expires exploratory gradients; it exceeds
	// interestPeriod so the periodic floods keep them alive.
	exploratoryGradientTimeout = 15 * time.Second
	// dataGradientTimeout expires data gradients; it exceeds
	// exploratoryPeriod so per-round re-reinforcement keeps live paths up.
	dataGradientTimeout = 60 * time.Second
	// exploratoryPeriod is how often each source emits an exploratory event
	// (paper: one per 50 s).
	exploratoryPeriod = 50 * time.Second
	// EntryTTL is the exploratory-entry lifetime, 1.5 exploratory periods:
	// repair ignores older entries, pruning drops them, and the chaos
	// invariant checker expires its per-entry state on the same horizon.
	EntryTTL = exploratoryPeriod + exploratoryPeriod/2
	// DataPeriod is the interval between generated events (paper: 2/s).
	DataPeriod = 500 * time.Millisecond
	// repairTimeout is how long an on-tree node tolerates data silence
	// before locally re-reinforcing an alternate upstream neighbor.
	repairTimeout = 2 * time.Second
	// repairPeriod is the interval between an on-tree node's local repair
	// passes.
	repairPeriod = time.Second
	// FloodJitterMax is the maximum random delay before rebroadcasting an
	// interest or exploratory event, decorrelating flood storms.
	FloodJitterMax = 50 * time.Millisecond
	// DataCacheTTL bounds how long item keys stay in the duplicate-
	// suppression cache.
	DataCacheTTL = 20 * time.Second
)

// The self-healing layer's fixed tuning (repair.go, linkquality.go).
const (
	// silenceFactor scales the data-silence watchdog: a reinforced entry
	// whose source has been quiet for silenceThreshold is declared broken
	// and locally repaired.
	silenceFactor    = 4
	silenceThreshold = silenceFactor * DataPeriod

	// ctrlRetryBase, ctrlRetryMax, and ctrlRetryLimit shape the capped
	// exponential backoff for retransmitting reinforcement and
	// incremental-cost messages whose MAC-level delivery failed: retry k
	// waits min(base·2^(k-1), max), up to limit retries.
	ctrlRetryBase  = 50 * time.Millisecond
	ctrlRetryMax   = 400 * time.Millisecond
	ctrlRetryLimit = 3

	// linkAlpha is the EWMA weight of the newest unicast outcome in the
	// per-neighbor link-quality estimate; minLinkQuality is the healthy
	// threshold below which a neighbor is sidelined (excluded from repair
	// choices, skipped by the data path when a healthier gradient exists).
	linkAlpha      float64 = 0.4
	minLinkQuality float64 = 0.25

	// qualityTTL is the probation horizon: an estimate with no fresh
	// samples for this long is forgiven (treated as healthy again), so a
	// link that failed during a transient outage is re-tried instead of
	// being blacklisted forever.
	qualityTTL = 10 * time.Second

	// probeCooldown rate-limits scoped re-exploration: at most one repair
	// probe per entry per cooldown.
	probeCooldown = 2 * time.Second

	// dataRetention bounds how long a node re-buffers data whose unicast
	// was abandoned by the MAC; items older than this die instead of being
	// retried.
	dataRetention = 30 * time.Second
)

// Params holds the protocol settings the figures vary: the timers Ta, Tn
// and Tp, the aggregation function, and the repair layer's switch. The
// zero value is not valid; start from DefaultParams.
type Params struct {
	// AggregationDelay is Ta, how long an aggregation point holds data
	// before flushing (paper: 0.5 s).
	AggregationDelay time.Duration
	// NegReinforceWindow is Tn, the observation window for path truncation
	// (paper: 2 s = 4·Ta).
	NegReinforceWindow time.Duration
	// ReinforceDelay is Tp, the sink's reinforcement timer in the greedy
	// scheme (paper: 1 s). The opportunistic strategy ignores it.
	ReinforceDelay time.Duration
	// Agg is the aggregation function sizing outgoing aggregates.
	Agg agg.Func

	// Repair configures the opt-in self-healing layer (repair.go,
	// linkquality.go). The zero value disables it entirely: no MAC hook is
	// installed, no extra timers or messages exist, and runs are
	// byte-identical to a build without the layer.
	Repair RepairParams
}

// RepairParams switches the self-healing resilience layer: link-quality
// estimation from unicast ACK outcomes, adaptive control retransmission,
// the data-silence watchdog with localized path repair, and graceful
// degradation of the data path while repair is in flight. Everything is
// deterministic — the layer introduces no randomness — so enabling repair
// keeps the (seed, config) reproducibility contract.
type RepairParams struct {
	// Enabled turns the layer on.
	Enabled bool
}

// DefaultRepairParams returns the self-healing layer enabled; assign it to
// Params.Repair to opt in.
func DefaultRepairParams() RepairParams {
	return RepairParams{Enabled: true}
}

// DefaultParams returns the paper's §5.1 values for the varied settings.
func DefaultParams() Params {
	return Params{
		AggregationDelay:   500 * time.Millisecond,
		NegReinforceWindow: 2 * time.Second,
		ReinforceDelay:     time.Second,
		Agg:                agg.Perfect{},
	}
}

// Validate reports the first problem with the parameters, if any.
func (p Params) Validate() error {
	switch {
	case p.AggregationDelay <= 0:
		return fmt.Errorf("diffusion: non-positive aggregation delay %v", p.AggregationDelay)
	case p.NegReinforceWindow < p.AggregationDelay:
		return fmt.Errorf("diffusion: truncation window %v below aggregation delay %v",
			p.NegReinforceWindow, p.AggregationDelay)
	case p.ReinforceDelay < 0:
		return fmt.Errorf("diffusion: negative reinforce delay %v", p.ReinforceDelay)
	case DataCacheTTL <= p.NegReinforceWindow:
		return fmt.Errorf("diffusion: data cache TTL %v must exceed truncation window %v",
			DataCacheTTL, p.NegReinforceWindow)
	case p.Agg == nil:
		return fmt.Errorf("diffusion: nil aggregation function")
	default:
		return nil
	}
}
