// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Kernel owns a virtual clock and a priority queue of scheduled events.
// Events fire in timestamp order; events scheduled for the same instant fire
// in the order they were scheduled, which makes runs bit-for-bit reproducible
// for a fixed seed. All simulation randomness should flow from the kernel's
// RNG so that a (seed, configuration) pair fully determines a run.
//
// A scheduled event always fires: the kernel has no cancellation. A model
// whose pending action may go stale checks for that when the action runs.
// The queue is a concrete inlined 4-ary min-heap whose slots hold each
// event's (at, seq) key beside its Runner, so sifting compares adjacent
// memory and a schedule-fire cycle allocates nothing once the heap's
// backing array is warm.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, measured from the start of the run.
// It is a time.Duration so that callers get readable literals (500 *
// time.Millisecond) and safe arithmetic for free.
type Time = time.Duration

// Handler is a callback invoked when a scheduled event fires.
type Handler func()

// Run calls h, so a Handler is itself a Runner. A func value is
// pointer-shaped, so storing one in a Runner allocates nothing.
func (h Handler) Run() { h() }

// Runner is the interface-based alternative to Handler for hot paths:
// a long-lived (typically pooled) object schedules itself and the kernel
// calls Run at the deadline. Storing an already-heap-allocated pointer in
// its heap slot avoids the closure allocation a Handler capture costs.
type Runner interface {
	Run()
}

// heapSlot is one queue entry: the event's firing key beside its callback.
type heapSlot struct {
	at  Time
	seq uint64 // tie-break: FIFO among same-time events
	r   Runner
}

// Kernel is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; a simulation run lives on one goroutine by design.
type Kernel struct {
	now     Time
	heap    []heapSlot // 4-ary min-heap ordered by (at, seq)
	seq     uint64
	rng     *rand.Rand
	running bool

	// Processed counts events that have fired since construction; maxQueue
	// is the queue-depth high-water mark over the kernel's lifetime.
	processed uint64
	maxQueue  int
}

// NewKernel returns a kernel whose randomness is derived from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's random source. All model randomness must come
// from here to keep runs reproducible.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Processed returns the number of events fired so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of events still queued.
func (k *Kernel) Pending() int { return len(k.heap) }

// QueueHighWater returns the largest queue depth ever reached — a telemetry
// signal for event-storm diagnosis and memory sizing.
func (k *Kernel) QueueHighWater() int { return k.maxQueue }

// PendingEvent is one queued event, as PendingEvents reports it.
type PendingEvent struct {
	At  Time
	Seq uint64
	// Runner is the event's callback: the scheduled object of a
	// ScheduleRunner event, or the Handler of a closure event.
	Runner Runner
}

// PendingEvents returns every queued event in firing order (at, seq), so
// tests stepping a run can inspect what is in flight.
func (k *Kernel) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, 0, len(k.heap))
	for _, s := range k.heap {
		out = append(out, PendingEvent{At: s.at, Seq: s.seq, Runner: s.r})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// ErrNegativeDelay is returned (via panic recovery in tests) when scheduling
// into the past is attempted.
var ErrNegativeDelay = errors.New("sim: negative delay")

// Schedule runs fn after delay of virtual time. A zero delay schedules fn at
// the current instant, after all previously scheduled events for that
// instant. Negative delays panic: they indicate a model bug, not a runtime
// condition a caller could handle.
func (k *Kernel) Schedule(delay Time, fn Handler) {
	if fn == nil {
		panic("sim: nil handler")
	}
	k.schedule(delay, fn)
}

// ScheduleRunner is Schedule for pooled objects: r.Run fires at the
// deadline. Because r is stored directly in its heap slot, scheduling
// allocates nothing when r is a long-lived pointer — the hot-path contract
// the MAC's transmission objects rely on.
func (k *Kernel) ScheduleRunner(delay Time, r Runner) {
	if r == nil {
		panic("sim: nil runner")
	}
	k.schedule(delay, r)
}

func (k *Kernel) schedule(delay Time, r Runner) {
	if delay < 0 {
		panic(fmt.Errorf("%w: %v", ErrNegativeDelay, delay))
	}
	k.heap = append(k.heap, heapSlot{at: k.now + delay, seq: k.seq, r: r})
	k.seq++
	k.siftUp(len(k.heap) - 1)
	if len(k.heap) > k.maxQueue {
		k.maxQueue = len(k.heap)
	}
}

// Run fires events in order until the queue empties or the horizon passes.
// It returns the virtual time at which it stopped.
//
// Events scheduled exactly at the horizon still fire; the first event
// strictly beyond it ends the run with the clock advanced to the horizon.
func (k *Kernel) Run(horizon Time) Time {
	if k.running {
		panic("sim: Run re-entered")
	}
	k.running = true
	defer func() { k.running = false }()

	for k.fire(horizon) {
	}
	if k.now < horizon {
		k.now = horizon
	}
	return k.now
}

// Step fires exactly one pending event and reports whether one fired. It is
// mainly useful in tests that want to single-step a model.
func (k *Kernel) Step() bool { return k.fire(math.MaxInt64) }

// fire fires the head event if it is due by horizon, reporting whether it
// did. Events past the horizon stay queued.
func (k *Kernel) fire(horizon Time) bool {
	if len(k.heap) == 0 || k.heap[0].at > horizon {
		return false
	}
	top := k.heap[0]
	k.popHead()
	k.now = top.at
	k.processed++
	top.r.Run()
	return true
}

// --- 4-ary min-heap over (at, seq) ------------------------------------------
//
// A 4-ary layout halves the tree depth of a binary heap, trading a few extra
// comparisons per level for far fewer cache-missing hops — the standard
// discrete-event-simulation tuning. Keys sit in the slots themselves, so a
// level's four children are compared from one contiguous run of memory.
// Ordering by (at, seq) is a total order, so heap shape never influences pop
// order and determinism is structural.

// evLess orders heap slot a before b.
func evLess(a, b *heapSlot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (k *Kernel) siftUp(i int) {
	h := k.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !evLess(&x, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	x := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if evLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !evLess(&h[m], &x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// popHead removes the minimum heap entry. The vacated slot is cleared so
// the heap's spare capacity does not keep a fired runner reachable.
func (k *Kernel) popHead() {
	n := len(k.heap) - 1
	k.heap[0] = k.heap[n]
	k.heap[n] = heapSlot{}
	k.heap = k.heap[:n]
	if n > 1 {
		k.siftDown(0)
	}
}
