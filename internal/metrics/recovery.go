package metrics

import (
	"sort"
	"time"
)

// Recovery summarizes how the protocol behaves around injected fault events
// — the observability half of the chaos layer: §5.3 claims the protocol
// keeps repairing its tree under faults, and these numbers make the repair
// measurable instead of assumed.
type Recovery struct {
	// Faults is the number of fault events inside the measurement window
	// (one per failure wave, crash, or partition onset).
	Faults int
	// Repaired is how many of those saw a later sink delivery before the
	// window closed; the repair times below cover only these.
	Repaired int
	// MeanTimeToRepair and MaxTimeToRepair measure the gap between a fault
	// event and the first subsequent sink delivery.
	MeanTimeToRepair time.Duration
	MaxTimeToRepair  time.Duration
	// MeanDipDepth is the mean fractional drop of the delivery rate in the
	// observation window after each fault, relative to the whole-window
	// steady rate (0 = no dip, 1 = complete silence).
	MeanDipDepth float64
	// Availability is the fraction of one-second buckets in the measurement
	// window with at least one sink delivery.
	Availability float64

	// TTRBuckets is a histogram of the per-fault repair times over fixed
	// bounds; the final bucket (UpTo == 0) collects repairs slower than the
	// largest bound. Nil when no fault was repaired in the window.
	TTRBuckets []TTRBucket
	// OutageTime is the summed length of the merged outage intervals: from
	// each fault to the first subsequent delivery (or the window's end),
	// overlapping outages counted once.
	OutageTime time.Duration
	// GeneratedDuringOutage counts events generated inside the outage
	// intervals — the traffic at risk while no delivery was flowing.
	GeneratedDuringOutage int
	// LostDuringOutage estimates the deliveries the steady rate would have
	// produced during the outage time; since outages by construction contain
	// no deliveries, this is the traffic the faults cost.
	LostDuringOutage int
}

// TTRBucket is one time-to-repair histogram bucket: Count repairs completed
// within UpTo (and above the previous bucket's bound). UpTo == 0 marks the
// overflow bucket.
type TTRBucket struct {
	UpTo  time.Duration
	Count int
}

// ttrBounds are the histogram bucket upper bounds, chosen around the repair
// layer's expected time scales: sub-second control retransmission, the
// few-second watchdog plus re-reinforcement path, and slow flood-driven
// recovery.
var ttrBounds = []time.Duration{
	500 * time.Millisecond,
	time.Second,
	2 * time.Second,
	5 * time.Second,
	10 * time.Second,
}

// RecoveryTracker accumulates fault and delivery timestamps during a run and
// reduces them to a Recovery at the end. Both feeds are append-only and in
// virtual-time order, so the tracker costs two slice appends per event.
type RecoveryTracker struct {
	deliveries []time.Duration
	faults     []time.Duration
	generated  []time.Duration
}

// RecoveryWindow is the post-fault observation window for the
// delivery-dip measurement.
const RecoveryWindow = 10 * time.Second

// NewRecoveryTracker returns an empty tracker.
func NewRecoveryTracker() *RecoveryTracker { return &RecoveryTracker{} }

// Delivery records a sink delivery at virtual time at.
func (t *RecoveryTracker) Delivery(at time.Duration) {
	t.deliveries = append(t.deliveries, at)
}

// Fault records a fault event at virtual time at.
func (t *RecoveryTracker) Fault(at time.Duration) {
	t.faults = append(t.faults, at)
}

// Generated records a source generating a distinct event at virtual time at.
func (t *RecoveryTracker) Generated(at time.Duration) {
	t.generated = append(t.generated, at)
}

// Finalize reduces the recorded timestamps over the measurement window
// [from, to). Call once at the end of the run.
func (t *RecoveryTracker) Finalize(from, to time.Duration) *Recovery {
	r := &Recovery{}
	if to <= from {
		return r
	}
	span := to - from

	var inWindow []time.Duration
	for _, d := range t.deliveries {
		if d >= from && d < to {
			inWindow = append(inWindow, d)
		}
	}
	steadyRate := float64(len(inWindow)) / span.Seconds()

	buckets := int(span / time.Second)
	if span%time.Second != 0 {
		buckets++
	}
	if buckets > 0 {
		seen := make([]bool, buckets)
		for _, d := range inWindow {
			seen[int((d-from)/time.Second)] = true
		}
		up := 0
		for _, s := range seen {
			if s {
				up++
			}
		}
		r.Availability = float64(up) / float64(buckets)
	}

	var ttrSum time.Duration
	var dipSum float64
	var ttrCounts []int
	var outages []interval
	dips := 0
	for _, f := range t.faults {
		if f < from || f >= to {
			continue
		}
		r.Faults++
		// Time to repair: gap to the first delivery strictly after the fault.
		i := sort.Search(len(inWindow), func(i int) bool { return inWindow[i] > f })
		if i < len(inWindow) {
			ttr := inWindow[i] - f
			r.Repaired++
			ttrSum += ttr
			if ttr > r.MaxTimeToRepair {
				r.MaxTimeToRepair = ttr
			}
			if ttrCounts == nil {
				ttrCounts = make([]int, len(ttrBounds)+1)
			}
			b := len(ttrBounds) // overflow
			for bi, bound := range ttrBounds {
				if ttr <= bound {
					b = bi
					break
				}
			}
			ttrCounts[b]++
			outages = append(outages, interval{f, inWindow[i]})
		} else {
			outages = append(outages, interval{f, to})
		}
		// Dip depth: delivery rate over [f, f+window)∩[from,to) vs steady.
		if steadyRate > 0 {
			end := f + RecoveryWindow
			if end > to {
				end = to
			}
			if end > f {
				j := sort.Search(len(inWindow), func(j int) bool { return inWindow[j] >= end })
				rate := float64(j-i) / (end - f).Seconds()
				depth := 1 - rate/steadyRate
				if depth < 0 {
					depth = 0
				}
				dipSum += depth
				dips++
			}
		}
	}
	if r.Repaired > 0 {
		r.MeanTimeToRepair = ttrSum / time.Duration(r.Repaired)
	}
	if dips > 0 {
		r.MeanDipDepth = dipSum / float64(dips)
	}
	if ttrCounts != nil {
		r.TTRBuckets = make([]TTRBucket, len(ttrCounts))
		for i, n := range ttrCounts {
			b := TTRBucket{Count: n}
			if i < len(ttrBounds) {
				b.UpTo = ttrBounds[i]
			}
			r.TTRBuckets[i] = b
		}
	}

	merged := mergeIntervals(outages)
	for _, iv := range merged {
		r.OutageTime += iv.end - iv.start
		// generated is appended in virtual-time order, so binary search finds
		// the events caught inside each merged outage.
		lo := sort.Search(len(t.generated), func(i int) bool { return t.generated[i] >= iv.start })
		hi := sort.Search(len(t.generated), func(i int) bool { return t.generated[i] >= iv.end })
		r.GeneratedDuringOutage += hi - lo
	}
	r.LostDuringOutage = int(steadyRate*r.OutageTime.Seconds() + 0.5)
	return r
}

// interval is a half-open outage span [start, end).
type interval struct{ start, end time.Duration }

// mergeIntervals coalesces overlapping or touching intervals; the input is
// sorted by start (faults arrive in virtual-time order).
func mergeIntervals(ivs []interval) []interval {
	var out []interval
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}
