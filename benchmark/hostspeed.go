package main

import "time"

// A shared host runs the benchmark's CPU slower or faster by a quarter or
// more over tens of seconds, in CPU time as much as in wall time. Times are
// therefore quoted at a fixed host speed: a fixed reference computation runs
// on the work's goroutine between cells, and each stretch of work is scaled
// by the reference's nominal time over the mean of the reference runs just
// before and after it. The reference is the benchmark's own code, so a
// change to the simulator moves the work and never the yardstick.

// refNominal is the reference's median time on the host BASELINE.md
// describes, so that scaled times read as seconds there.
const refNominal = 11 * time.Millisecond

// refEvery is how much work may pass between two reference runs.
const refEvery = 250 * time.Millisecond

const (
	refTableLen = 1 << 15 // 256 KiB of uint64, inside a core's L2
	refHeapLen  = 1 << 12
	refSteps    = 150_000
)

// refState is the reference's memory, allocated once so that a reference
// run allocates nothing and leaves the collector alone.
var refState struct {
	table, heap []uint64
	sink        uint64
}

// reference runs the reference computation and returns how long it took.
// It is built like the simulator's hot paths: random reads and writes in a
// table that fits in L2, and a binary min-heap of timestamps.
func reference() time.Duration {
	if refState.table == nil {
		refState.table = make([]uint64, refTableLen)
		refState.heap = make([]uint64, 0, refHeapLen+1)
	}
	start := time.Now()
	t, h := refState.table, refState.heap[:0]
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint64
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refTableLen - 1)
		t[j] += x
		acc += t[(j*31+7)&(refTableLen-1)]
		h = heapPush(h, x>>12)
		if len(h) > refHeapLen {
			var v uint64
			h, v = heapPop(h)
			acc ^= v
		}
	}
	refState.sink += acc
	return time.Since(start)
}

func heapPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []uint64) ([]uint64, uint64) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h, top
}

// speedometer times a stretch of work interrupted by reference runs. The
// work's raw time excludes the reference runs; its scaled time multiplies
// each piece of work by refNominal over the mean of the reference runs
// just before and after it.
type speedometer struct {
	start   time.Time
	lastEnd time.Duration // end of the last reference run, since start
	lastRef time.Duration // duration of the last reference run
	raw     time.Duration
	scaled  float64 // nanoseconds at nominal host speed
	refs    []time.Duration
}

// startSpeedometer runs a reference and starts timing work after it.
func startSpeedometer() *speedometer {
	s := &speedometer{}
	s.lastRef = reference()
	s.refs = append(s.refs, s.lastRef)
	s.start = time.Now()
	return s
}

// tick closes the piece of work done since the last reference run with a
// new reference run, if at least refEvery of work has passed or force is
// set.
func (s *speedometer) tick(force bool) {
	work := time.Since(s.start) - s.lastEnd
	if work < refEvery && !force {
		return
	}
	r := reference()
	s.raw += work
	s.scaled += float64(work) * float64(refNominal) / (float64(s.lastRef+r) / 2)
	s.lastRef = r
	s.refs = append(s.refs, r)
	s.lastEnd = time.Since(s.start)
}

// stop closes the last piece of work and returns the raw and scaled times.
func (s *speedometer) stop() (raw, scaled time.Duration) {
	s.tick(true)
	return s.raw, time.Duration(s.scaled)
}
