package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/msg"
	"repro/internal/topology"
)

// SchemaVersion is the NDJSON trace schema version, bumped on incompatible
// field changes. Every record carries it in "v"; decoders reject newer
// versions. The versioned field list lives in DESIGN.md "Observability".
const SchemaVersion = 1

// Record type tags ("t" field).
const (
	recordEvent    = "event"
	recordSnapshot = "snapshot"
)

// rawRecord is the on-the-wire form of both record types: one JSON object
// per line, disjoint field sets distinguished by "t". Integer and boolean
// fields use omitempty — a missing field decodes to its zero value, which
// is exact for this vocabulary (Peer is never omitted in practice only when
// zero, and node 0 is a valid ID precisely because zero round-trips).
type rawRecord struct {
	V    int    `json:"v"`
	T    string `json:"t"`
	AtNS int64  `json:"at_ns"`
	Node int    `json:"node"`

	// Event fields.
	Op       string `json:"op,omitempty"`
	Peer     int    `json:"peer,omitempty"`
	Kind     string `json:"kind,omitempty"`
	Interest int    `json:"interest,omitempty"`
	ID       uint64 `json:"id,omitempty"`
	Origin   int    `json:"origin,omitempty"`
	Items    int    `json:"items,omitempty"`
	E        int    `json:"e,omitempty"`
	C        int    `json:"c,omitempty"`
	W        int    `json:"w,omitempty"`
	Fresh    int    `json:"fresh,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Hops     int    `json:"hops,omitempty"`
	FanIn    int    `json:"fan_in,omitempty"`
	DelayNS  int64  `json:"delay_ns,omitempty"`

	// Snapshot fields (Interest is shared with events).
	On       bool      `json:"on,omitempty"`
	Sink     bool      `json:"sink,omitempty"`
	Source   bool      `json:"source,omitempty"`
	OnTree   bool      `json:"on_tree,omitempty"`
	DupCache int       `json:"dup_cache,omitempty"`
	Entries  int       `json:"entries,omitempty"`
	Grads    []rawGrad `json:"grads,omitempty"`
}

type rawGrad struct {
	Nbr       int   `json:"nbr"`
	Data      bool  `json:"data,omitempty"`
	ExpiresNS int64 `json:"expires_ns,omitempty"`
}

// NDJSON streams events and snapshots as newline-delimited JSON. It
// implements Sink (usable as core.Config.Tracer) and SnapshotSink. Writes
// are unbuffered unless the caller wraps w; use NewNDJSONFile for a
// buffered file writer with Close.
type NDJSON struct {
	enc *json.Encoder
	err error
}

// NewNDJSON returns a writer emitting one record per line to w.
func NewNDJSON(w io.Writer) *NDJSON {
	return &NDJSON{enc: json.NewEncoder(w)}
}

// Err returns the first write error, if any; NDJSON drops records after an
// error rather than failing mid-simulation.
func (n *NDJSON) Err() error { return n.err }

func (n *NDJSON) emit(r rawRecord) {
	if n.err != nil {
		return
	}
	n.err = n.enc.Encode(r)
}

// Record implements Sink.
func (n *NDJSON) Record(e Event) {
	kind := ""
	if e.Kind != 0 {
		kind = e.Kind.String()
	}
	n.emit(rawRecord{
		V:        SchemaVersion,
		T:        recordEvent,
		AtNS:     int64(e.At),
		Node:     int(e.Node),
		Op:       e.Op.String(),
		Peer:     int(e.Peer),
		Kind:     kind,
		Interest: int(e.Interest),
		ID:       uint64(e.ID),
		Origin:   int(e.Origin),
		Items:    e.Items,
		E:        e.E,
		C:        e.C,
		W:        e.W,
		Fresh:    e.Fresh,
		Reason:   e.Reason.String(),
		Hops:     e.Hops,
		FanIn:    e.FanIn,
		DelayNS:  int64(e.Delay),
	})
}

// RecordSnapshot implements SnapshotSink.
func (n *NDJSON) RecordSnapshot(s SnapshotRecord) {
	r := rawRecord{
		V:        SchemaVersion,
		T:        recordSnapshot,
		AtNS:     int64(s.At),
		Node:     int(s.Node),
		Interest: int(s.Interest),
		On:       s.On,
		Sink:     s.Sink,
		Source:   s.Source,
		OnTree:   s.OnTree,
		DupCache: s.DupCache,
		Entries:  s.Entries,
	}
	for _, g := range s.Gradients {
		r.Grads = append(r.Grads, rawGrad{Nbr: int(g.Nbr), Data: g.Data, ExpiresNS: int64(g.Expires)})
	}
	n.emit(r)
}

// FileNDJSON is an NDJSON writer over a buffered file. Close flushes and
// reports the first error seen anywhere in the stream's life.
type FileNDJSON struct {
	*NDJSON
	f      *os.File
	bw     *bufio.Writer
	closed bool
}

// NewNDJSONFile creates (truncating) path and returns a buffered NDJSON
// writer onto it.
func NewNDJSONFile(path string) (*FileNDJSON, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	return &FileNDJSON{NDJSON: NewNDJSON(bw), f: f, bw: bw}, nil
}

// Close flushes and closes the file. Closing twice is a no-op.
func (f *FileNDJSON) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.Err()
	if e := f.bw.Flush(); err == nil {
		err = e
	}
	if e := f.f.Close(); err == nil {
		err = e
	}
	return err
}

// DecodedRecord is one parsed NDJSON line: either an event or a snapshot.
type DecodedRecord struct {
	// IsSnapshot selects which of the two payloads is valid.
	IsSnapshot bool
	Event      Event
	Snapshot   SnapshotRecord
}

// Decoder reads an NDJSON trace line by line.
type Decoder struct {
	sc   *bufio.Scanner
	line int
}

// NewDecoder returns a decoder reading from r. Lines up to 16 MiB are
// accepted (dense snapshots of large fields are long).
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Decoder{sc: sc}
}

// Next returns the next record, or io.EOF at the end of the stream.
func (d *Decoder) Next() (DecodedRecord, error) {
	for d.sc.Scan() {
		d.line++
		line := d.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r rawRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return DecodedRecord{}, fmt.Errorf("trace: line %d: %w", d.line, err)
		}
		if r.V > SchemaVersion {
			return DecodedRecord{}, fmt.Errorf("trace: line %d: schema version %d newer than %d",
				d.line, r.V, SchemaVersion)
		}
		switch r.T {
		case recordEvent:
			op, err := ParseOp(r.Op)
			if err != nil {
				return DecodedRecord{}, fmt.Errorf("trace: line %d: %w", d.line, err)
			}
			var kind msg.Kind
			if r.Kind != "" {
				if kind, err = msg.ParseKind(r.Kind); err != nil {
					return DecodedRecord{}, fmt.Errorf("trace: line %d: %w", d.line, err)
				}
			}
			reason, err := ParseDropReason(r.Reason)
			if err != nil {
				return DecodedRecord{}, fmt.Errorf("trace: line %d: %w", d.line, err)
			}
			return DecodedRecord{Event: Event{
				At:       time.Duration(r.AtNS),
				Op:       op,
				Node:     topology.NodeID(r.Node),
				Peer:     topology.NodeID(r.Peer),
				Kind:     kind,
				Interest: msg.InterestID(r.Interest),
				ID:       msg.MsgID(r.ID),
				Origin:   topology.NodeID(r.Origin),
				Items:    r.Items,
				E:        r.E,
				C:        r.C,
				W:        r.W,
				Fresh:    r.Fresh,
				Reason:   reason,
				Hops:     r.Hops,
				FanIn:    r.FanIn,
				Delay:    time.Duration(r.DelayNS),
			}}, nil
		case recordSnapshot:
			s := SnapshotRecord{
				At:       time.Duration(r.AtNS),
				Node:     topology.NodeID(r.Node),
				Interest: msg.InterestID(r.Interest),
				On:       r.On,
				Sink:     r.Sink,
				Source:   r.Source,
				OnTree:   r.OnTree,
				DupCache: r.DupCache,
				Entries:  r.Entries,
			}
			for _, g := range r.Grads {
				s.Gradients = append(s.Gradients, SnapshotGradient{
					Nbr: topology.NodeID(g.Nbr), Data: g.Data, Expires: time.Duration(g.ExpiresNS),
				})
			}
			return DecodedRecord{IsSnapshot: true, Snapshot: s}, nil
		default:
			return DecodedRecord{}, fmt.Errorf("trace: line %d: unknown record type %q", d.line, r.T)
		}
	}
	if err := d.sc.Err(); err != nil {
		return DecodedRecord{}, err
	}
	return DecodedRecord{}, io.EOF
}
