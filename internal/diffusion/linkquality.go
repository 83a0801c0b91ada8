package diffusion

import (
	"time"

	"repro/internal/topology"
)

// lqEntry is one neighbor's link-quality estimate: an EWMA over the final
// outcomes of unicast attempt cycles (1 for an ACKed frame, 0 for a frame
// the MAC abandoned after its retry budget).
type lqEntry struct {
	nbr topology.NodeID
	q   float64
	at  time.Duration // time of the newest sample
}

// linkQuality tracks per-neighbor delivery quality for one node. Unknown
// neighbors are optimistic (quality 1), and estimates whose newest sample is
// older than the probation TTL are forgiven — otherwise a link that failed
// only during a transient outage would stay blacklisted forever, since a
// sidelined link receives no traffic and therefore no new samples.
//
// The neighbor list is an ordered slice, not a map, for the same reasons as
// the protocol tables (see table.go): node degree is small, iteration must
// be deterministic, and binary search keeps lookups cheap.
type linkQuality struct {
	es []lqEntry
}

// find returns the index of nbr's entry, or the insertion point with ok
// false.
func (lq *linkQuality) find(nbr topology.NodeID) (int, bool) {
	lo, hi := 0, len(lq.es)
	for lo < hi {
		mid := (lo + hi) / 2
		if lq.es[mid].nbr < nbr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(lq.es) && lq.es[lo].nbr == nbr
}

// observe folds one unicast outcome into nbr's estimate with EWMA weight
// linkAlpha. The first sample initializes the estimate from the optimistic
// prior, so a single early failure does not condemn a fresh link.
func (lq *linkQuality) observe(nbr topology.NodeID, acked bool, now time.Duration) {
	i, ok := lq.find(nbr)
	if !ok {
		lq.es = append(lq.es, lqEntry{})
		copy(lq.es[i+1:], lq.es[i:])
		lq.es[i] = lqEntry{nbr: nbr, q: 1}
	}
	e := &lq.es[i]
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
	i, ok := lq.find(nbr)
	if !ok || now-lq.es[i].at > qualityTTL {
		return 1
	}
	return lq.es[i].q
}

// prune drops entries with no samples newer than horizon; they already read
// as optimistic, so dropping them only reclaims memory.
func (lq *linkQuality) prune(now, horizon time.Duration) {
	kept := lq.es[:0]
	for _, e := range lq.es {
		if now-e.at <= horizon {
			kept = append(kept, e)
		}
	}
	lq.es = kept
}

// reset forgets everything (amnesia).
func (lq *linkQuality) reset() { lq.es = lq.es[:0] }
