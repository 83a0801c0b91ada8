package diffusion

import (
	"time"

	"repro/internal/topology"
)

// lqEntry is one neighbor's link-quality estimate: an EWMA over the final
// outcomes of unicast attempt cycles (1 for an ACKed frame, 0 for a frame
// the MAC abandoned after its retry budget).
type lqEntry struct {
	q  float64
	at time.Duration // time of the newest sample
}

// linkQuality tracks per-neighbor delivery quality for one node. Unknown
// neighbors are optimistic (quality 1), and estimates whose newest sample is
// older than the probation TTL are forgiven — otherwise a link that failed
// only during a transient outage would stay blacklisted forever, since a
// sidelined link receives no traffic and therefore no new samples.
//
// The estimates live in a sorted table like the protocol's soft state (see
// table.go): node degree is small, iteration must be deterministic, and
// binary search keeps lookups cheap.
type linkQuality struct {
	table[topology.NodeID, lqEntry]
}

// observe folds one unicast outcome into nbr's estimate with EWMA weight
// linkAlpha. The first sample initializes the estimate from the optimistic
// prior, so a single early failure does not condemn a fresh link.
func (lq *linkQuality) observe(nbr topology.NodeID, acked bool, now time.Duration) {
	e, ok := lq.getOrInsert(nbr)
	if !ok {
		e.q = 1
	}
	sample := 0.0
	if acked {
		sample = 1.0
	}
	e.q = (1-linkAlpha)*e.q + linkAlpha*sample
	e.at = now
}

// quality returns nbr's current estimate. Neighbors without an entry, and
// entries whose newest sample is older than qualityTTL, report the
// optimistic 1.
func (lq *linkQuality) quality(nbr topology.NodeID, now time.Duration) float64 {
	e := lq.ref(nbr)
	if e == nil || now-e.at > qualityTTL {
		return 1
	}
	return e.q
}

// prune drops entries with no samples newer than horizon; they already read
// as optimistic, so dropping them only reclaims memory.
func (lq *linkQuality) prune(now, horizon time.Duration) {
	lq.keep(func(e lqEntry) bool { return now-e.at <= horizon })
}
