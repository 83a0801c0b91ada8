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

// Params holds the protocol timing and aggregation configuration. The zero
// value is not valid; start from DefaultParams.
type Params struct {
	// InterestPeriod is how often each sink re-floods its interest
	// (paper: 5 s).
	InterestPeriod time.Duration
	// ExploratoryGradientTimeout expires exploratory gradients; it must
	// exceed InterestPeriod so the periodic floods keep them alive.
	ExploratoryGradientTimeout time.Duration
	// DataGradientTimeout expires data gradients; it must exceed
	// ExploratoryPeriod so per-round re-reinforcement keeps live paths up.
	DataGradientTimeout time.Duration
	// ExploratoryPeriod is how often each source emits an exploratory event
	// (paper: one per 50 s).
	ExploratoryPeriod time.Duration
	// DataPeriod is the interval between generated events (paper: 2/s).
	DataPeriod time.Duration
	// AggregationDelay is Ta, how long an aggregation point holds data
	// before flushing (paper: 0.5 s).
	AggregationDelay time.Duration
	// NegReinforceWindow is Tn, the observation window for path truncation
	// (paper: 2 s = 4·Ta).
	NegReinforceWindow time.Duration
	// ReinforceDelay is Tp, the sink's reinforcement timer in the greedy
	// scheme (paper: 1 s). The opportunistic strategy ignores it.
	ReinforceDelay time.Duration
	// RepairTimeout is how long an on-tree node tolerates data silence
	// before locally re-reinforcing an alternate upstream neighbor.
	RepairTimeout time.Duration
	// FloodJitterMax is the maximum random delay before rebroadcasting an
	// interest or exploratory event, decorrelating flood storms.
	FloodJitterMax time.Duration
	// DataCacheTTL bounds how long item keys stay in the duplicate-
	// suppression cache.
	DataCacheTTL time.Duration
	// Agg is the aggregation function sizing outgoing aggregates.
	Agg agg.Func

	// Repair configures the opt-in self-healing layer (repair.go,
	// linkquality.go). The zero value disables it entirely: no MAC hook is
	// installed, no extra timers or messages exist, and runs are
	// byte-identical to a build without the layer.
	Repair RepairParams
}

// RepairParams configures the self-healing resilience layer: link-quality
// estimation from unicast ACK outcomes, adaptive control retransmission,
// the data-silence watchdog with localized path repair, and graceful
// degradation of the data path while repair is in flight. Everything is
// deterministic — no field introduces randomness — so enabling repair keeps
// the (seed, config) reproducibility contract.
type RepairParams struct {
	// Enabled turns the layer on. All other fields are ignored when false.
	Enabled bool

	// SilenceFactor scales the data-silence watchdog: a reinforced entry
	// whose source has been quiet for SilenceFactor × DataPeriod is declared
	// broken and locally repaired.
	SilenceFactor int

	// CtrlRetryBase, CtrlRetryMax, and CtrlRetryLimit shape the capped
	// exponential backoff for retransmitting reinforcement and
	// incremental-cost messages whose MAC-level delivery failed: retry k
	// waits min(Base·2^(k-1), Max), up to Limit retries.
	CtrlRetryBase  time.Duration
	CtrlRetryMax   time.Duration
	CtrlRetryLimit int

	// LinkAlpha is the EWMA weight of the newest unicast outcome in the
	// per-neighbor link-quality estimate; MinLinkQuality is the healthy
	// threshold below which a neighbor is sidelined (excluded from repair
	// choices, skipped by the data path when a healthier gradient exists).
	LinkAlpha      float64
	MinLinkQuality float64

	// QualityTTL is the probation horizon: an estimate with no fresh
	// samples for this long is forgiven (treated as healthy again), so a
	// link that failed during a transient outage is re-tried instead of
	// being blacklisted forever.
	QualityTTL time.Duration

	// ProbeCooldown rate-limits scoped re-exploration: at most one repair
	// probe per entry per cooldown.
	ProbeCooldown time.Duration

	// DataRetention bounds how long a node re-buffers data whose unicast
	// was abandoned by the MAC; items older than this die instead of being
	// retried. Zero disables data re-buffering.
	DataRetention time.Duration
}

// DefaultRepairParams returns the self-healing layer's tuning with the layer
// enabled; assign it to Params.Repair to opt in.
func DefaultRepairParams() RepairParams {
	return RepairParams{
		Enabled:        true,
		SilenceFactor:  4,
		CtrlRetryBase:  50 * time.Millisecond,
		CtrlRetryMax:   400 * time.Millisecond,
		CtrlRetryLimit: 3,
		LinkAlpha:      0.4,
		MinLinkQuality: 0.25,
		QualityTTL:     10 * time.Second,
		ProbeCooldown:  2 * time.Second,
		DataRetention:  30 * time.Second,
	}
}

// Validate reports the first problem with the repair parameters, if any.
// A disabled configuration is always valid.
func (r RepairParams) Validate() error {
	if !r.Enabled {
		return nil
	}
	switch {
	case r.SilenceFactor < 1:
		return fmt.Errorf("diffusion: repair silence factor %d < 1", r.SilenceFactor)
	case r.CtrlRetryBase <= 0 || r.CtrlRetryMax < r.CtrlRetryBase:
		return fmt.Errorf("diffusion: bad repair retry backoff [%v, %v]",
			r.CtrlRetryBase, r.CtrlRetryMax)
	case r.CtrlRetryLimit < 0:
		return fmt.Errorf("diffusion: negative repair retry limit %d", r.CtrlRetryLimit)
	case r.LinkAlpha <= 0 || r.LinkAlpha > 1:
		return fmt.Errorf("diffusion: repair link alpha %v outside (0, 1]", r.LinkAlpha)
	case r.MinLinkQuality < 0 || r.MinLinkQuality >= 1:
		return fmt.Errorf("diffusion: repair quality threshold %v outside [0, 1)", r.MinLinkQuality)
	case r.QualityTTL <= 0:
		return fmt.Errorf("diffusion: non-positive repair quality TTL %v", r.QualityTTL)
	case r.ProbeCooldown <= 0:
		return fmt.Errorf("diffusion: non-positive repair probe cooldown %v", r.ProbeCooldown)
	case r.DataRetention < 0:
		return fmt.Errorf("diffusion: negative repair data retention %v", r.DataRetention)
	default:
		return nil
	}
}

// DefaultParams returns the paper's §5.1 methodology values (with the OCR
// reconstruction documented in DESIGN.md).
func DefaultParams() Params {
	return Params{
		InterestPeriod:             5 * time.Second,
		ExploratoryGradientTimeout: 15 * time.Second,
		DataGradientTimeout:        60 * time.Second,
		ExploratoryPeriod:          50 * time.Second,
		DataPeriod:                 500 * time.Millisecond,
		AggregationDelay:           500 * time.Millisecond,
		NegReinforceWindow:         2 * time.Second,
		ReinforceDelay:             time.Second,
		RepairTimeout:              2 * time.Second,
		FloodJitterMax:             50 * time.Millisecond,
		DataCacheTTL:               20 * time.Second,
		Agg:                        agg.Perfect{},
	}
}

// Validate reports the first problem with the parameters, if any.
func (p Params) Validate() error {
	switch {
	case p.InterestPeriod <= 0 || p.ExploratoryPeriod <= 0 || p.DataPeriod <= 0:
		return fmt.Errorf("diffusion: non-positive period in %+v", p)
	case p.ExploratoryGradientTimeout <= p.InterestPeriod:
		return fmt.Errorf("diffusion: exploratory gradient timeout %v must exceed interest period %v",
			p.ExploratoryGradientTimeout, p.InterestPeriod)
	case p.DataGradientTimeout <= p.ExploratoryPeriod:
		return fmt.Errorf("diffusion: data gradient timeout %v must exceed exploratory period %v",
			p.DataGradientTimeout, p.ExploratoryPeriod)
	case p.AggregationDelay <= 0:
		return fmt.Errorf("diffusion: non-positive aggregation delay %v", p.AggregationDelay)
	case p.NegReinforceWindow < p.AggregationDelay:
		return fmt.Errorf("diffusion: truncation window %v below aggregation delay %v",
			p.NegReinforceWindow, p.AggregationDelay)
	case p.ReinforceDelay < 0 || p.RepairTimeout <= 0:
		return fmt.Errorf("diffusion: bad reinforce/repair timing in %+v", p)
	case p.FloodJitterMax < 0:
		return fmt.Errorf("diffusion: negative flood jitter %v", p.FloodJitterMax)
	case p.DataCacheTTL <= p.NegReinforceWindow:
		return fmt.Errorf("diffusion: data cache TTL %v must exceed truncation window %v",
			p.DataCacheTTL, p.NegReinforceWindow)
	case p.Agg == nil:
		return fmt.Errorf("diffusion: nil aggregation function")
	default:
		return p.Repair.Validate()
	}
}
