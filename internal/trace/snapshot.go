package trace

import (
	"time"

	"repro/internal/msg"
	"repro/internal/topology"
)

// SnapshotRecord is one node's per-interest protocol state at an instant —
// the periodic dump behind core's Telemetry.SnapshotEvery: gradient tables,
// the on-tree flag, and cache sizes, enough to reconstruct tree evolution
// offline.
type SnapshotRecord struct {
	At       time.Duration
	Node     topology.NodeID
	Interest msg.InterestID
	// On is the node's power state; Sink/Source its workload roles (Source
	// only once activated by an interest); OnTree whether it currently has
	// a live data gradient (or is the interest's sink).
	On     bool
	Sink   bool
	Source bool
	OnTree bool
	// DupCache is the duplicate-suppression cache size, Entries the
	// exploratory entry cache size.
	DupCache int
	Entries  int
	// Gradients lists the live gradients toward downstream neighbors.
	Gradients []SnapshotGradient
}

// SnapshotGradient is one live gradient in a snapshot.
type SnapshotGradient struct {
	Nbr topology.NodeID
	// Data marks a (reinforced) data gradient; false is exploratory.
	Data bool
	// Expires is the gradient's expiry in virtual time.
	Expires time.Duration
}

// Sink receives recorded events; Recorder and NDJSON implement it, and so
// does diffusion's Tracer interface (they share the method set).
type Sink interface {
	Record(Event)
}

// SnapshotSink is implemented by sinks that also accept periodic protocol
// snapshots (NDJSON does; the plain ring Recorder does not).
type SnapshotSink interface {
	RecordSnapshot(SnapshotRecord)
}

// multi fans events out to several sinks.
type multi struct{ sinks []Sink }

// snapshotMulti is a multi with at least one member taking snapshots.
type snapshotMulti struct{ multi }

// MultiSink returns a sink that forwards every event to all of ss. It is a
// SnapshotSink only when one of ss is, and then forwards every snapshot to
// those of ss implementing SnapshotSink: a fan-out whose members all drop
// snapshots does not claim to take them.
func MultiSink(ss ...Sink) Sink {
	for _, s := range ss {
		if _, ok := s.(SnapshotSink); ok {
			return &snapshotMulti{multi{sinks: ss}}
		}
	}
	return &multi{sinks: ss}
}

// Record implements Sink.
func (m *multi) Record(e Event) {
	for _, s := range m.sinks {
		s.Record(e)
	}
}

// RecordSnapshot implements SnapshotSink.
func (m *snapshotMulti) RecordSnapshot(rec SnapshotRecord) {
	for _, s := range m.sinks {
		if ss, ok := s.(SnapshotSink); ok {
			ss.RecordSnapshot(rec)
		}
	}
}
