package diffusion

import (
	"testing"
	"time"
)

func TestLinkQualityEWMA(t *testing.T) {
	var lq linkQuality

	// Unknown neighbors read as healthy: repair must not blacklist links it
	// has never sampled.
	if q := lq.quality(5, 0); q != 1 {
		t.Fatalf("unknown link quality = %v, want 1", q)
	}

	// First failure moves off the optimistic prior: 0.6*1 + 0.4*0 = 0.6.
	lq.observe(5, false, time.Second)
	if q := lq.quality(5, time.Second); q != 0.6 {
		t.Fatalf("after one nack q = %v, want 0.6", q)
	}
	// Second failure: 0.6*0.6 = 0.36.
	lq.observe(5, false, 2*time.Second)
	if q := lq.quality(5, 2*time.Second); q < 0.359 || q > 0.361 {
		t.Fatalf("after two nacks q = %v, want 0.36", q)
	}
	// An ack pulls it back up: 0.6*0.36 + 0.4 = 0.616.
	lq.observe(5, true, 3*time.Second)
	if q := lq.quality(5, 3*time.Second); q < 0.615 || q > 0.617 {
		t.Fatalf("after ack q = %v, want 0.616", q)
	}

	// Estimates stay ordered and independent across neighbors.
	lq.observe(2, false, 3*time.Second)
	lq.observe(9, true, 3*time.Second)
	if q := lq.quality(2, 3*time.Second); q != 0.6 {
		t.Fatalf("neighbor 2 q = %v, want 0.6", q)
	}
	if q := lq.quality(9, 3*time.Second); q != 1 {
		t.Fatalf("neighbor 9 q = %v, want 1", q)
	}

	// Probation: a stale estimate reads healthy again so dead links get
	// re-probed instead of being excluded forever.
	if q := lq.quality(2, 3*time.Second+qualityTTL+time.Nanosecond); q != 1 {
		t.Fatalf("stale estimate q = %v, want 1 (probation)", q)
	}

	// prune drops entries older than the horizon; reset clears everything.
	lq.observe(2, false, 20*time.Second)
	lq.prune(22*time.Second, 5*time.Second) // keeps only the 20 s sample
	if len(lq.es) != 1 || lq.es[0].key != 2 {
		t.Fatalf("prune kept %v, want only neighbor 2", lq.es)
	}
	lq.reset()
	if len(lq.es) != 0 {
		t.Fatalf("reset left %v", lq.es)
	}
}
