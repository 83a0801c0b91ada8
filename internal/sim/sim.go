// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Kernel owns a virtual clock and a priority queue of scheduled events.
// Events fire in timestamp order; events scheduled for the same instant fire
// in the order they were scheduled, which makes runs bit-for-bit reproducible
// for a fixed seed. All simulation randomness should flow from the kernel's
// RNG so that a (seed, configuration) pair fully determines a run.
//
// The event queue is built for allocation-free steady state: event records
// live in a pooled arena recycled through a free list, the priority queue is
// a concrete inlined 4-ary min-heap of arena indexes (no interface boxing,
// no per-Schedule heap allocation once the arena is warm), and Timer handles
// are generation-counted so Stop and Active stay safe after a record is
// recycled. Cancelled events are compacted out of the heap lazily once they
// outnumber live ones, so mass cancellation cannot pin queue memory until
// the dead deadlines drain.
package sim

import (
	"errors"
	"fmt"
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

// Runner is the interface-based alternative to Handler for hot paths:
// a long-lived (typically pooled) object schedules itself and the kernel
// calls Run at the deadline. Storing an already-heap-allocated pointer in
// the event record avoids the closure allocation a Handler capture costs.
type Runner interface {
	Run()
}

// event is one pooled event record. Records are recycled through the
// kernel's free list; gen increments on every recycle so stale Timer
// handles can never act on a successor event.
type event struct {
	at     Time
	seq    uint64 // tie-break: FIFO among same-time events
	fn     Handler
	runner Runner
	gen    uint32
	state  uint8
}

// Event record states.
const (
	evFree uint8 = iota
	evPending
	evCancelled // Stop'd but not yet compacted or drained from the heap
)

// Timer is a handle to a scheduled event. Its zero value is invalid; timers
// are obtained from Kernel.Schedule and friends. Handles are generation-
// counted: once the underlying pooled record fires or is cancelled and gets
// recycled, old handles observe a generation mismatch and become no-ops.
type Timer struct {
	k   *Kernel
	idx int32
	gen uint32
}

// Stop cancels the timer if it has not fired yet. It reports whether the
// cancellation prevented the event from firing. Stopping an already-fired or
// already-stopped timer is a harmless no-op returning false.
func (t Timer) Stop() bool {
	if t.k == nil {
		return false
	}
	ev := &t.k.pool[t.idx]
	if ev.gen != t.gen || ev.state != evPending {
		return false
	}
	ev.state = evCancelled
	ev.fn = nil
	ev.runner = nil
	t.k.cancelled++
	t.k.maybeCompact()
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	if t.k == nil {
		return false
	}
	ev := &t.k.pool[t.idx]
	return ev.gen == t.gen && ev.state == evPending
}

// Kernel is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; a simulation run lives on one goroutine by design.
type Kernel struct {
	now       Time
	heap      []int32 // 4-ary min-heap of pool indexes, ordered by (at, seq)
	pool      []event
	free      []int32
	cancelled int // cancelled records still sitting in the heap
	seq       uint64
	rng       *rand.Rand
	running   bool
	stopped   bool

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

// Pending returns the number of events still queued (including cancelled
// events not yet compacted or drained).
func (k *Kernel) Pending() int { return len(k.heap) }

// QueueHighWater returns the largest queue depth ever reached — a telemetry
// signal for event-storm diagnosis and memory sizing.
func (k *Kernel) QueueHighWater() int { return k.maxQueue }

// PoolSize returns the number of event records in the arena, recycled and
// live — a memory-footprint signal: a steady-state run should see it
// plateau at the queue high-water mark rather than grow with event count.
func (k *Kernel) PoolSize() int { return len(k.pool) }

// PendingEvent is one live queued event, as PendingEvents reports it.
type PendingEvent struct {
	At  Time
	Seq uint64
	// Runner is the scheduled object of a ScheduleRunner event; nil for a
	// closure event.
	Runner Runner
}

// PendingEvents returns every live queued event in firing order (at, seq),
// so tests stepping a run can inspect what is in flight. Cancelled records
// still sitting in the heap are left out.
func (k *Kernel) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, 0, len(k.heap))
	for _, idx := range k.heap {
		if ev := &k.pool[idx]; ev.state == evPending {
			out = append(out, PendingEvent{At: ev.at, Seq: ev.seq, Runner: ev.runner})
		}
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
func (k *Kernel) Schedule(delay Time, fn Handler) Timer {
	if fn == nil {
		panic("sim: nil handler")
	}
	return k.schedule(delay, fn, nil)
}

// ScheduleRunner is Schedule for pooled objects: r.Run fires at the
// deadline. Because r is stored directly in the event record, scheduling
// allocates nothing when r is a long-lived pointer — the hot-path contract
// the MAC's transmission objects rely on.
func (k *Kernel) ScheduleRunner(delay Time, r Runner) Timer {
	if r == nil {
		panic("sim: nil runner")
	}
	return k.schedule(delay, nil, r)
}

func (k *Kernel) schedule(delay Time, fn Handler, r Runner) Timer {
	if delay < 0 {
		panic(fmt.Errorf("%w: %v", ErrNegativeDelay, delay))
	}
	return k.at(k.now+delay, fn, r)
}

// At runs fn at the absolute virtual time at. Times in the past panic.
func (k *Kernel) At(at Time, fn Handler) Timer {
	if fn == nil {
		panic("sim: nil handler")
	}
	return k.at(at, fn, nil)
}

func (k *Kernel) at(at Time, fn Handler, r Runner) Timer {
	if at < k.now {
		panic(fmt.Errorf("%w: at=%v now=%v", ErrNegativeDelay, at, k.now))
	}
	idx := k.alloc()
	ev := &k.pool[idx]
	ev.at = at
	ev.seq = k.seq
	ev.fn = fn
	ev.runner = r
	ev.state = evPending
	k.seq++
	k.heap = append(k.heap, idx)
	k.siftUp(len(k.heap) - 1)
	if len(k.heap) > k.maxQueue {
		k.maxQueue = len(k.heap)
	}
	return Timer{k: k, idx: idx, gen: ev.gen}
}

// alloc hands out an event record, recycling the free list before growing
// the arena.
func (k *Kernel) alloc() int32 {
	if n := len(k.free); n > 0 {
		idx := k.free[n-1]
		k.free = k.free[:n-1]
		return idx
	}
	k.pool = append(k.pool, event{})
	return int32(len(k.pool) - 1)
}

// release recycles a record. The generation bump invalidates every Timer
// handle still pointing at it; clearing the callbacks drops any captured
// references so fired closures do not outlive their deadline.
func (k *Kernel) release(idx int32) {
	ev := &k.pool[idx]
	ev.fn = nil
	ev.runner = nil
	ev.state = evFree
	ev.gen++
	k.free = append(k.free, idx)
}

// Stop makes Run return after the currently firing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// PeekTime returns the timestamp of the next live event without firing it,
// draining any cancelled records sitting at the head. The second result is
// false when no live events remain. The shard coordinator uses this to
// compute the global lower bound on future events between windows.
func (k *Kernel) PeekTime() (Time, bool) {
	for len(k.heap) > 0 {
		idx := k.heap[0]
		ev := &k.pool[idx]
		if ev.state == evCancelled {
			k.popHead()
			k.cancelled--
			k.release(idx)
			continue
		}
		return ev.at, true
	}
	return 0, false
}

// Run fires events in order until the queue empties, the horizon passes, or
// Stop is called. It returns the virtual time at which it stopped.
//
// Events scheduled exactly at the horizon still fire; the first event
// strictly beyond it ends the run with the clock advanced to the horizon.
func (k *Kernel) Run(horizon Time) Time {
	if k.running {
		panic("sim: Run re-entered")
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()

	for len(k.heap) > 0 && !k.stopped {
		idx := k.heap[0]
		ev := &k.pool[idx]
		if ev.at > horizon {
			k.now = horizon
			return k.now
		}
		if ev.state == evCancelled {
			k.popHead()
			k.cancelled--
			k.release(idx)
			continue
		}
		k.now = ev.at
		fn, r := ev.fn, ev.runner
		k.popHead()
		k.release(idx)
		k.processed++
		if fn != nil {
			fn()
		} else {
			r.Run()
		}
	}
	if k.now < horizon && !k.stopped {
		k.now = horizon
	}
	return k.now
}

// Step fires exactly one pending (non-cancelled) event and reports whether
// one fired. It is mainly useful in tests that want to single-step a model.
func (k *Kernel) Step() bool {
	for len(k.heap) > 0 {
		idx := k.heap[0]
		ev := &k.pool[idx]
		if ev.state == evCancelled {
			k.popHead()
			k.cancelled--
			k.release(idx)
			continue
		}
		k.now = ev.at
		fn, r := ev.fn, ev.runner
		k.popHead()
		k.release(idx)
		k.processed++
		if fn != nil {
			fn()
		} else {
			r.Run()
		}
		return true
	}
	return false
}

// --- 4-ary min-heap over (at, seq) ------------------------------------------
//
// A 4-ary layout halves the tree depth of a binary heap, trading a few extra
// comparisons per level for far fewer cache-missing hops — the standard
// discrete-event-simulation tuning. Ordering by (at, seq) is a total order,
// so heap shape never influences pop order and determinism is structural.

// evLess orders pool records a before b.
func (k *Kernel) evLess(a, b int32) bool {
	ea, eb := &k.pool[a], &k.pool[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (k *Kernel) siftUp(i int) {
	h := k.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !k.evLess(x, h[p]) {
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
			if k.evLess(h[j], h[m]) {
				m = j
			}
		}
		if !k.evLess(h[m], x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// popHead removes the minimum heap entry (without releasing its record).
func (k *Kernel) popHead() {
	n := len(k.heap) - 1
	k.heap[0] = k.heap[n]
	k.heap = k.heap[:n]
	if n > 1 {
		k.siftDown(0)
	}
}

// compactMinQueue is the queue depth below which compaction is never
// worth the rebuild; tiny queues drain their cancelled entries naturally.
const compactMinQueue = 64

// maybeCompact rebuilds the heap without its cancelled entries once they
// outnumber the live ones. Called from Timer.Stop, so a mass-cancellation
// burst frees its queue slots (and recycles its records) immediately
// instead of pinning them until their deadlines pass.
func (k *Kernel) maybeCompact() {
	if len(k.heap) >= compactMinQueue && k.cancelled*2 > len(k.heap) {
		k.compact()
	}
}

func (k *Kernel) compact() {
	live := k.heap[:0]
	for _, idx := range k.heap {
		if k.pool[idx].state == evCancelled {
			k.release(idx)
		} else {
			live = append(live, idx)
		}
	}
	k.heap = live
	k.cancelled = 0
	if len(k.heap) < 2 {
		return
	}
	// Floyd heapify: sift down from the last parent. Cheaper than n sifts
	// and order-independent thanks to the (at, seq) total order.
	for i := (len(k.heap) - 2) / 4; i >= 0; i-- {
		k.siftDown(i)
	}
}
