package metrics

import (
	"testing"
	"time"
)

const sec = time.Second

// TestRecoveryBasics pins the original reduction: faults with a later
// delivery are repaired, TTR is the gap to the first strictly-later delivery.
func TestRecoveryBasics(t *testing.T) {
	tr := NewRecoveryTracker()
	tr.Delivery(1 * sec)
	tr.Fault(2 * sec)
	tr.Delivery(3 * sec)
	tr.Delivery(4 * sec)
	r := tr.Finalize(0, 10*sec)
	if r.Faults != 1 || r.Repaired != 1 {
		t.Fatalf("faults/repaired = %d/%d, want 1/1", r.Faults, r.Repaired)
	}
	if r.MeanTimeToRepair != sec || r.MaxTimeToRepair != sec {
		t.Fatalf("ttr = %v/%v, want 1s/1s", r.MeanTimeToRepair, r.MaxTimeToRepair)
	}
	if r.OutageTime != sec {
		t.Fatalf("OutageTime = %v, want 1s", r.OutageTime)
	}
}

// TestRecoveryRepairAtWindowBoundary pins the window-edge semantics: a
// delivery landing exactly at the window's end (`to`) is outside the
// half-open [from, to) window, so the fault reads unrepaired and its outage
// runs to the window end.
func TestRecoveryRepairAtWindowBoundary(t *testing.T) {
	tr := NewRecoveryTracker()
	tr.Delivery(1 * sec) // establishes a nonzero steady rate
	tr.Fault(8 * sec)
	tr.Delivery(10 * sec) // exactly at to: excluded
	r := tr.Finalize(0, 10*sec)
	if r.Faults != 1 || r.Repaired != 0 {
		t.Fatalf("faults/repaired = %d/%d, want 1/0", r.Faults, r.Repaired)
	}
	if r.TTRBuckets != nil {
		t.Fatalf("TTRBuckets = %v with no repaired fault, want nil", r.TTRBuckets)
	}
	if r.OutageTime != 2*sec {
		t.Fatalf("OutageTime = %v, want 2s (fault to window end)", r.OutageTime)
	}

	// One nanosecond earlier the same delivery is in-window and repairs the
	// fault, closing the outage at the delivery.
	tr2 := NewRecoveryTracker()
	tr2.Delivery(1 * sec)
	tr2.Fault(8 * sec)
	tr2.Delivery(10*sec - time.Nanosecond)
	r2 := tr2.Finalize(0, 10*sec)
	if r2.Repaired != 1 {
		t.Fatalf("repaired = %d, want 1", r2.Repaired)
	}
	if r2.OutageTime != 2*sec-time.Nanosecond {
		t.Fatalf("OutageTime = %v, want 2s-1ns", r2.OutageTime)
	}
}

// TestRecoveryDeliveryAtFaultInstant pins the strictly-after rule: a
// delivery at exactly the fault time does not repair the fault.
func TestRecoveryDeliveryAtFaultInstant(t *testing.T) {
	tr := NewRecoveryTracker()
	tr.Delivery(2 * sec)
	tr.Fault(2 * sec)
	r := tr.Finalize(0, 10*sec)
	if r.Repaired != 0 {
		t.Fatalf("repaired = %d, want 0 (delivery at fault instant is not a repair)", r.Repaired)
	}
	if r.OutageTime != 8*sec {
		t.Fatalf("OutageTime = %v, want 8s", r.OutageTime)
	}
}

// TestRecoveryOverlappingOutages pins outage merging: two faults before the
// next delivery (e.g. two crashes on the same branch) share one outage
// interval, counted once from the first fault.
func TestRecoveryOverlappingOutages(t *testing.T) {
	tr := NewRecoveryTracker()
	tr.Delivery(1 * sec)
	tr.Fault(2 * sec)
	tr.Fault(3 * sec)    // overlaps the first outage
	tr.Delivery(5 * sec) // repairs both
	tr.Fault(7 * sec)    // disjoint second outage
	tr.Delivery(7500 * time.Millisecond)
	r := tr.Finalize(0, 10*sec)
	if r.Faults != 3 || r.Repaired != 3 {
		t.Fatalf("faults/repaired = %d/%d, want 3/3", r.Faults, r.Repaired)
	}
	// Merged: [2s,5s) once (not 3s+2s) plus [7s,7.5s).
	if want := 3*sec + 500*time.Millisecond; r.OutageTime != want {
		t.Fatalf("OutageTime = %v, want %v", r.OutageTime, want)
	}
}

// TestRecoveryGeneratedAndLost pins the outage-loss accounting: generated
// events inside merged outage intervals are counted, and the loss estimate
// is the steady delivery rate times the outage seconds.
func TestRecoveryGeneratedAndLost(t *testing.T) {
	tr := NewRecoveryTracker()
	for i := 1; i <= 5; i++ {
		tr.Delivery(time.Duration(i) * sec) // 5 deliveries over 10 s: 0.5/s
	}
	tr.Fault(6 * sec)
	tr.Generated(5 * sec) // before the outage
	tr.Generated(6 * sec) // at outage start: inside
	tr.Generated(7 * sec) // inside
	tr.Generated(8 * sec) // exactly at outage end: outside
	tr.Delivery(8 * sec)  // repairs at 8 s
	r := tr.Finalize(0, 10*sec)
	if r.GeneratedDuringOutage != 2 {
		t.Fatalf("GeneratedDuringOutage = %d, want 2", r.GeneratedDuringOutage)
	}
	// steadyRate = 6 deliveries / 10 s = 0.6/s over a 2 s outage -> round(1.2).
	if r.LostDuringOutage != 1 {
		t.Fatalf("LostDuringOutage = %d, want 1", r.LostDuringOutage)
	}
}

// TestRecoveryTTRBuckets pins the histogram: bucket assignment over the
// fixed bounds and the trailing overflow bucket (UpTo == 0).
func TestRecoveryTTRBuckets(t *testing.T) {
	tr := NewRecoveryTracker()
	tr.Fault(1 * sec)
	tr.Delivery(1*sec + 400*time.Millisecond) // ttr 400ms -> <=500ms
	tr.Fault(10 * sec)
	tr.Delivery(11500 * time.Millisecond) // ttr 1.5s -> <=2s
	tr.Fault(20 * sec)
	tr.Delivery(40 * sec) // ttr 20s -> overflow
	r := tr.Finalize(0, 60*sec)
	if r.Repaired != 3 {
		t.Fatalf("repaired = %d, want 3", r.Repaired)
	}
	if len(r.TTRBuckets) != len(ttrBounds)+1 {
		t.Fatalf("bucket count = %d, want %d", len(r.TTRBuckets), len(ttrBounds)+1)
	}
	counts := map[time.Duration]int{}
	for _, b := range r.TTRBuckets {
		counts[b.UpTo] = b.Count
	}
	if counts[500*time.Millisecond] != 1 || counts[2*sec] != 1 || counts[0] != 1 {
		t.Fatalf("bucket spread wrong: %+v", r.TTRBuckets)
	}
	total := 0
	for _, b := range r.TTRBuckets {
		total += b.Count
	}
	if total != r.Repaired {
		t.Fatalf("bucket total %d != repaired %d", total, r.Repaired)
	}
}

func TestMergeIntervals(t *testing.T) {
	got := mergeIntervals([]interval{
		{1 * sec, 3 * sec},
		{2 * sec, 4 * sec}, // overlaps
		{4 * sec, 5 * sec}, // touches: merged
		{7 * sec, 7 * sec}, // empty: dropped
		{8 * sec, 9 * sec},
	})
	want := []interval{{1 * sec, 5 * sec}, {8 * sec, 9 * sec}}
	if len(got) != len(want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
