package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestKernelFiresInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	delays := []Time{300 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	for _, d := range delays {
		d := d
		k.Schedule(d, func() { got = append(got, k.Now()) })
	}
	end := k.Run(time.Second)
	if end != time.Second {
		t.Fatalf("Run returned %v, want 1s", end)
	}
	want := []Time{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Second, func() { order = append(order, i) })
	}
	k.Run(2 * time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestKernelZeroDelayRunsAfterCurrentInstant(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Schedule(time.Second, func() {
		order = append(order, "outer")
		k.Schedule(0, func() { order = append(order, "inner") })
	})
	k.Schedule(time.Second, func() { order = append(order, "sibling") })
	k.Run(2 * time.Second)
	want := []string{"outer", "sibling", "inner"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestRunHorizonStopsBeforeLaterEvents(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.Schedule(time.Second, func() { fired++ })
	k.Schedule(3*time.Second, func() { fired++ })
	end := k.Run(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if end != 2*time.Second {
		t.Fatalf("end = %v, want 2s", end)
	}
	// Continue the run; the remaining event must still fire.
	k.Run(5 * time.Second)
	if fired != 2 {
		t.Fatalf("after resume fired = %d, want 2", fired)
	}
}

func TestEventAtHorizonFires(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(2*time.Second, func() { fired = true })
	k.Run(2 * time.Second)
	if !fired {
		t.Fatal("event scheduled exactly at horizon did not fire")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	k := NewKernel(1)
	k.Schedule(-time.Second, func() {})
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil handler")
		}
	}()
	k := NewKernel(1)
	k.Schedule(time.Second, nil)
}

func TestStepSingleSteps(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.Schedule(time.Second, func() { n++ })
	k.Schedule(2*time.Second, func() { n++ })
	if !k.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !k.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if k.Step() {
		t.Fatal("Step on empty queue should return false")
	}
	// Popping clears the vacated slot, so the heap's spare capacity keeps
	// no fired callback reachable.
	for i, s := range k.heap[:cap(k.heap)] {
		if s != (heapSlot{}) {
			t.Fatalf("spare heap slot %d still holds %+v", i, s)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int64 {
		k := NewKernel(seed)
		var draws []int64
		var tick func()
		tick = func() {
			draws = append(draws, k.Rand().Int63n(1000))
			if len(draws) < 50 {
				k.Schedule(Time(k.Rand().Int63n(int64(time.Second))), tick)
			}
		}
		k.Schedule(0, tick)
		k.Run(time.Hour)
		return draws
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestProcessedAndPendingCounts(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 5; i++ {
		k.Schedule(Time(i+1)*time.Second, func() {})
	}
	if k.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", k.Pending())
	}
	k.Run(3 * time.Second)
	if k.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3", k.Processed())
	}
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
}

// Property: regardless of the (non-negative) delays scheduled, events fire in
// nondecreasing time order and every event fires exactly once.
func TestPropertyOrderedFiring(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		k := NewKernel(7)
		var fireTimes []Time
		for _, r := range raw {
			d := Time(r % 1_000_000_000) // < 1s
			k.Schedule(d, func() { fireTimes = append(fireTimes, k.Now()) })
		}
		k.Run(time.Hour)
		if len(fireTimes) != len(raw) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunReentryPanics(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on re-entrant Run")
			}
		}()
		k.Run(2 * time.Second)
	})
	k.Run(3 * time.Second)
}

// TestZeroAllocSteadyState verifies the headline property of the kernel:
// once the heap's backing array is warm, a schedule→fire cycle allocates
// nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	k := NewKernel(1)
	tick := func() {}
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		k.Schedule(Time(i)*time.Microsecond, tick)
	}
	k.Run(k.Now() + time.Millisecond)

	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(time.Microsecond, tick)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.1f objects/op, want 0", allocs)
	}
}

type countingRunner struct{ n int }

func (r *countingRunner) Run() { r.n++ }

// TestScheduleRunner exercises the closure-free scheduling path.
func TestScheduleRunner(t *testing.T) {
	k := NewKernel(1)
	r := &countingRunner{}
	k.ScheduleRunner(time.Millisecond, r)
	k.ScheduleRunner(2*time.Millisecond, r)
	k.Run(time.Second)
	if r.n != 2 {
		t.Fatalf("runner fired %d times, want 2", r.n)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil runner")
		}
	}()
	k.ScheduleRunner(time.Millisecond, nil)
}
