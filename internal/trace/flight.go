package trace

import (
	"io"
	"os"
)

// FlightRecorder keeps the most recent trace records — protocol events and
// per-node soft-state snapshots, interleaved in arrival order — in one
// fixed-size ring so a misbehaving run can be post-mortemed without paying
// for full tracing. It implements Sink and SnapshotSink: install it as (part
// of) the run's tracer and it silently absorbs everything; on an invariant
// violation or a panic the core dumps the ring as NDJSON, which tracestat
// and the trace.Decoder read like any other trace.
//
// Memory is bounded by the ring capacity: a record is a small fixed struct
// plus, for snapshots, the gradient list (bounded by node degree). Recording
// overwrites the oldest entry; nothing is allocated per record once the ring
// is warm, so the recorder is cheap enough to leave always-on.
type FlightRecorder struct {
	ring    []flightRec
	next    int
	full    bool
	total   uint64
	dumped  bool
	dumpErr error
}

// flightRec is one ring slot: an event or a snapshot, tagged by snap.
type flightRec struct {
	ev   Event
	sr   SnapshotRecord
	snap bool
}

// FlightCapacity is the ring size in records: enough to hold several
// seconds of dense protocol traffic around the failure, small enough (~a
// few MB) to be negligible next to the run itself.
const FlightCapacity = 8192

// NewFlightRecorder returns a recorder keeping up to FlightCapacity records.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{ring: make([]flightRec, FlightCapacity)}
}

func (f *FlightRecorder) push(r flightRec) {
	f.ring[f.next] = r
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.full = true
	}
	f.total++
}

// Record implements Sink.
func (f *FlightRecorder) Record(e Event) { f.push(flightRec{ev: e}) }

// RecordSnapshot implements SnapshotSink.
func (f *FlightRecorder) RecordSnapshot(s SnapshotRecord) {
	f.push(flightRec{sr: s, snap: true})
}

// Len returns the number of records currently retained.
func (f *FlightRecorder) Len() int {
	if f.full {
		return len(f.ring)
	}
	return f.next
}

// Total returns how many records were ever recorded, including overwritten
// ones.
func (f *FlightRecorder) Total() uint64 { return f.total }

// Dumped reports whether a dump already ran (DumpFile dumps at most once per
// run — the first trigger wins, later ones are no-ops).
func (f *FlightRecorder) Dumped() bool { return f.dumped }

// DumpError returns the dump's error, if a dump ran; nil otherwise.
func (f *FlightRecorder) DumpError() error { return f.dumpErr }

// WriteNDJSON writes the retained records, oldest first, in the standard
// NDJSON trace schema. Records carry only virtual time, so identically
// seeded runs dump byte-identical files.
func (f *FlightRecorder) WriteNDJSON(w io.Writer) error {
	nd := NewNDJSON(w)
	emit := func(r flightRec) {
		if r.snap {
			nd.RecordSnapshot(r.sr)
		} else {
			nd.Record(r.ev)
		}
	}
	if f.full {
		for _, r := range f.ring[f.next:] {
			emit(r)
		}
	}
	for _, r := range f.ring[:f.next] {
		emit(r)
	}
	return nd.Err()
}

// DumpFile writes the ring to path (truncating), once: the first call wins
// and later calls return the first call's error without touching the file
// again, so a violation storm produces exactly one dump of the records
// surrounding the first breach.
func (f *FlightRecorder) DumpFile(path string) error {
	if f.dumped {
		return f.dumpErr
	}
	f.dumped = true
	f.dumpErr = func() error {
		file, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := f.WriteNDJSON(file); err != nil {
			file.Close()
			return err
		}
		return file.Close()
	}()
	return f.dumpErr
}
