package metrics

import (
	"math"
	"testing"
	"time"
)

// windowClock is a settable virtual clock for exercising window edges.
type windowClock struct{ now time.Duration }

func (c *windowClock) clock() time.Duration { return c.now }

// TestWindowEdges pins the documented [From, To) semantics: an event
// generated exactly at From counts, one generated exactly at To does not,
// and deliveries are gated by generation time, not delivery time.
func TestWindowEdges(t *testing.T) {
	ck := &windowClock{}
	c := NewCollector(10*time.Second, 20*time.Second, ck.clock)

	ck.now = 10*time.Second - time.Nanosecond // just before the window
	c.Generated(1, item(1, 0))
	ck.now = 10 * time.Second // exactly at From: inclusive
	c.Generated(1, item(1, 1))
	ck.now = 20*time.Second - time.Nanosecond // last in-window instant
	c.Generated(1, item(1, 2))
	ck.now = 20 * time.Second // exactly at To: exclusive
	c.Generated(1, item(1, 3))

	if got := c.GeneratedCount(); got != 2 {
		t.Fatalf("GeneratedCount = %d, want 2 (items 1 and 2)", got)
	}

	// Deliveries after To still count as long as the event was generated
	// in-window: the window selects the measured population, not the
	// observation span.
	ck.now = 30 * time.Second
	c.Delivered(9, item(1, 1), 20*time.Second)
	if got := c.DeliveredCount(); got != 1 {
		t.Fatalf("DeliveredCount = %d, want 1", got)
	}
	// Deliveries of out-of-window events are ignored entirely.
	c.Delivered(9, item(1, 0), time.Second)
	c.Delivered(9, item(1, 3), time.Second)
	if got := c.DeliveredCount(); got != 1 {
		t.Fatalf("out-of-window delivery counted: %d", got)
	}
}

// TestDuplicateDeliveryToSecondSink pins distinct-per-sink counting: the
// same event delivered to two sinks counts twice, but twice to the same
// sink counts once and contributes delay once.
func TestDuplicateDeliveryToSecondSink(t *testing.T) {
	ck := &windowClock{now: time.Second}
	c := NewCollector(0, 0, ck.clock)
	c.Generated(1, item(1, 0))

	c.Delivered(7, item(1, 0), 2*time.Second)
	c.Delivered(7, item(1, 0), 4*time.Second) // duplicate at the same sink
	c.Delivered(8, item(1, 0), 4*time.Second) // first arrival at a second sink

	if got := c.DeliveredCount(); got != 2 {
		t.Fatalf("DeliveredCount = %d, want 2 (one per sink)", got)
	}
	if got := len(c.delivered); got != 2 {
		t.Fatalf("%d sinks received events, want 2", got)
	}
	res, err := c.Finalize("greedy", 10, 5, 2, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Delay averages the two counted arrivals (2 s and 4 s), not the
	// duplicate.
	if res.AvgDelay != 3 {
		t.Fatalf("AvgDelay = %v, want 3", res.AvgDelay)
	}
	// Ratio normalizes by sinks: 2 deliveries / (1 event * 2 sinks) = 1.
	if res.DeliveryRatio != 1 {
		t.Fatalf("DeliveryRatio = %v, want 1", res.DeliveryRatio)
	}
}

// TestFinalizeZeroDeliveries pins the no-delivery path: every ratio stays
// finite and zero — no NaN from a 0/0.
func TestFinalizeZeroDeliveries(t *testing.T) {
	ck := &windowClock{now: time.Second}
	c := NewCollector(0, 0, ck.clock)
	c.Generated(1, item(1, 0))

	res, err := c.Finalize("greedy", 10, 5, 1, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"AvgDissipatedEnergy": res.AvgDissipatedEnergy,
		"AvgCommEnergy":       res.AvgCommEnergy,
		"AvgDelay":            res.AvgDelay,
		"DeliveryRatio":       res.DeliveryRatio,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v with zero deliveries", name, v)
		}
		if v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
}
