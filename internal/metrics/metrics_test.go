package metrics

import (
	"math"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/topology"
)

type clock struct{ now time.Duration }

func (c *clock) fn() time.Duration { return c.now }

func item(src topology.NodeID, seq int) msg.Item {
	return msg.Item{Source: src, Seq: seq}
}

func TestNilClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCollector(0, 0, nil)
}

func TestWindowFiltersGeneration(t *testing.T) {
	c := &clock{}
	col := NewCollector(10*time.Second, 20*time.Second, c.fn)

	c.now = 5 * time.Second
	col.Generated(1, item(1, 0)) // before window
	c.now = 15 * time.Second
	col.Generated(1, item(1, 1)) // inside
	c.now = 25 * time.Second
	col.Generated(1, item(1, 2)) // after

	if got := col.GeneratedCount(); got != 1 {
		t.Fatalf("GeneratedCount = %d, want 1", got)
	}
}

func TestDeliveredOnlyCountsWindowedItems(t *testing.T) {
	c := &clock{now: 15 * time.Second}
	col := NewCollector(10*time.Second, 20*time.Second, c.fn)
	col.Generated(1, item(1, 1))

	// Delivery of an item never counted as generated is ignored.
	col.Delivered(9, item(1, 99), time.Second)
	if col.DeliveredCount() != 0 {
		t.Fatal("unknown item counted as delivered")
	}

	col.Delivered(9, item(1, 1), time.Second)
	col.Delivered(9, item(1, 1), 2*time.Second) // duplicate at same sink
	if col.DeliveredCount() != 1 {
		t.Fatalf("DeliveredCount = %d, want 1 (duplicates ignored)", col.DeliveredCount())
	}
	// A second sink counts separately.
	col.Delivered(8, item(1, 1), time.Second)
	if col.DeliveredCount() != 2 {
		t.Fatalf("DeliveredCount = %d, want 2 over two sinks", col.DeliveredCount())
	}
	if len(col.delivered) != 2 {
		t.Fatalf("%d sinks received events, want 2", len(col.delivered))
	}
}

func TestUnboundedWindow(t *testing.T) {
	c := &clock{now: time.Hour}
	col := NewCollector(0, 0, c.fn)
	col.Generated(1, item(1, 0))
	if col.GeneratedCount() != 1 {
		t.Fatal("unbounded window rejected a generation")
	}
}

func TestFinalizeMetricDefinitions(t *testing.T) {
	c := &clock{now: time.Second}
	col := NewCollector(0, 0, c.fn)
	for i := 0; i < 10; i++ {
		col.Generated(1, item(1, i))
	}
	for i := 0; i < 8; i++ {
		col.Delivered(9, item(1, i), 500*time.Millisecond)
	}

	const totalJ, commJ = 80.0, 8.0
	r, err := col.Finalize("greedy", 40, 12.5, 1, totalJ, commJ)
	if err != nil {
		t.Fatal(err)
	}
	// Average dissipated energy: (80 J / 40 nodes) / 8 events = 0.25.
	if math.Abs(r.AvgDissipatedEnergy-0.25) > 1e-12 {
		t.Errorf("AvgDissipatedEnergy = %v, want 0.25", r.AvgDissipatedEnergy)
	}
	if math.Abs(r.AvgCommEnergy-0.025) > 1e-12 {
		t.Errorf("AvgCommEnergy = %v, want 0.025", r.AvgCommEnergy)
	}
	if math.Abs(r.AvgDelay-0.5) > 1e-12 {
		t.Errorf("AvgDelay = %v, want 0.5", r.AvgDelay)
	}
	if math.Abs(r.DeliveryRatio-0.8) > 1e-12 {
		t.Errorf("DeliveryRatio = %v, want 0.8", r.DeliveryRatio)
	}
	if r.Scheme != "greedy" || r.Nodes != 40 || r.Density != 12.5 {
		t.Errorf("labels wrong: %+v", r)
	}
}

func TestFinalizeMultiSinkRatio(t *testing.T) {
	c := &clock{now: time.Second}
	col := NewCollector(0, 0, c.fn)
	for i := 0; i < 10; i++ {
		col.Generated(1, item(1, i))
	}
	// Sink A gets all 10, sink B gets 5: ratio = 15 / (10*2) = 0.75.
	for i := 0; i < 10; i++ {
		col.Delivered(100, item(1, i), time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		col.Delivered(101, item(1, i), time.Millisecond)
	}
	r, err := col.Finalize("x", 10, 1, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.DeliveryRatio-0.75) > 1e-12 {
		t.Errorf("DeliveryRatio = %v, want 0.75", r.DeliveryRatio)
	}
}

func TestFinalizeEmptyRun(t *testing.T) {
	c := &clock{}
	col := NewCollector(0, 0, c.fn)
	r, err := col.Finalize("x", 10, 1, 1, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgDissipatedEnergy != 0 || r.AvgDelay != 0 || r.DeliveryRatio != 0 {
		t.Fatalf("empty run should zero the ratios: %+v", r)
	}
}

func TestFinalizeValidation(t *testing.T) {
	c := &clock{}
	col := NewCollector(0, 0, c.fn)
	if _, err := col.Finalize("x", 10, 1, 0, 1, 1); err == nil {
		t.Fatal("zero sinks accepted")
	}
	if _, err := col.Finalize("x", 0, 1, 1, 1, 1); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestConcentration(t *testing.T) {
	c := NewConcentration([]float64{1, 1, 1, 5})
	if c.MaxNodeJ != 5 {
		t.Fatalf("MaxNodeJ = %v", c.MaxNodeJ)
	}
	if c.MeanNodeJ != 2 {
		t.Fatalf("MeanNodeJ = %v", c.MeanNodeJ)
	}
	if c.PeakToMean != 2.5 {
		t.Fatalf("PeakToMean = %v", c.PeakToMean)
	}
	zero := NewConcentration(nil)
	if zero.PeakToMean != 0 || zero.MaxNodeJ != 0 {
		t.Fatalf("empty concentration = %+v", zero)
	}
}
