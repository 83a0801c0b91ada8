package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/msg"
)

func TestOpDropString(t *testing.T) {
	if OpDrop.String() != "drop" {
		t.Fatalf("OpDrop = %q", OpDrop)
	}
	if op, err := ParseOp("drop"); err != nil || op != OpDrop {
		t.Fatalf("ParseOp(drop) = %v, %v", op, err)
	}
	if _, err := ParseOp("bogus"); err == nil {
		t.Fatal("unknown op accepted")
	}
	for d := DropNone; d <= DropChaosLoss; d++ {
		back, err := ParseDropReason(d.String())
		if err != nil || back != d {
			t.Fatalf("reason %d does not round-trip: %v, %v", d, back, err)
		}
	}
	e := Event{Op: OpDrop, Kind: msg.KindData, Reason: DropCollision}
	if !strings.Contains(e.String(), "reason=collision") {
		t.Fatalf("drop event line missing reason: %s", e)
	}
}

func TestRecorderEvictedVsFiltered(t *testing.T) {
	r := NewRecorder(3)
	r.SetFilter(KindFilter(msg.KindData))
	r.Record(ev(0, msg.KindInterest)) // filtered
	for i := 0; i < 5; i++ {
		r.Record(ev(i, msg.KindData))
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want the 5 events the filter accepted", r.Total())
	}
	if got := len(r.Events()); got != 3 {
		t.Fatalf("retained %d events, want the ring's 3", got)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	events := []Event{
		{At: time.Second, Op: OpSend, Node: 0, Peer: -1, Kind: msg.KindInterest, Interest: 0, ID: 7, Origin: 0},
		{At: 2 * time.Second, Op: OpReceive, Node: 3, Peer: 1, Kind: msg.KindData,
			Interest: 1, ID: 42, Origin: 5, Items: 3, E: 2, C: 1, W: 4, Fresh: 2},
		{At: 3 * time.Second, Op: OpDrop, Node: 2, Peer: 9, Kind: msg.KindReinforce,
			Interest: 0, Reason: DropChaosLoss},
	}
	snap := SnapshotRecord{
		At: 4 * time.Second, Node: 6, Interest: 1, On: true, Source: true, OnTree: true,
		DupCache: 12, Entries: 3,
		Gradients: []SnapshotGradient{
			{Nbr: 0, Data: true, Expires: 9 * time.Second},
			{Nbr: 4, Data: false, Expires: 5 * time.Second},
		},
	}

	var buf bytes.Buffer
	w := NewNDJSON(&buf)
	for _, e := range events {
		w.Record(e)
	}
	w.RecordSnapshot(snap)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	if got := strings.Count(buf.String(), "\n"); got != 4 {
		t.Fatalf("wrote %d lines, want 4", got)
	}

	d := NewDecoder(&buf)
	for i, want := range events {
		rec, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec.IsSnapshot {
			t.Fatalf("record %d decoded as snapshot", i)
		}
		if rec.Event != want {
			t.Fatalf("event %d round trip:\n got %+v\nwant %+v", i, rec.Event, want)
		}
	}
	rec, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.IsSnapshot {
		t.Fatal("snapshot decoded as event")
	}
	got := rec.Snapshot
	if got.Node != snap.Node || !got.OnTree || got.DupCache != 12 || len(got.Gradients) != 2 {
		t.Fatalf("snapshot round trip: %+v", got)
	}
	if got.Gradients[0] != snap.Gradients[0] || got.Gradients[1] != snap.Gradients[1] {
		t.Fatalf("gradients round trip: %+v", got.Gradients)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestDecoderRejectsGarbageAndNewerVersions(t *testing.T) {
	d := NewDecoder(strings.NewReader("not json\n"))
	if _, err := d.Next(); err == nil {
		t.Fatal("garbage accepted")
	}
	d = NewDecoder(strings.NewReader(`{"v":99,"t":"event","at_ns":0,"node":0,"op":"send"}` + "\n"))
	if _, err := d.Next(); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("newer version accepted: %v", err)
	}
	d = NewDecoder(strings.NewReader(`{"v":1,"t":"mystery","at_ns":0,"node":0}` + "\n"))
	if _, err := d.Next(); err == nil {
		t.Fatal("unknown record type accepted")
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	r1, r2 := NewRecorder(4), NewRecorder(4)
	var buf bytes.Buffer
	nd := NewNDJSON(&buf)
	m := MultiSink(r1, r2, nd)
	m.Record(ev(1, msg.KindData))
	if r1.Total() != 1 || r2.Total() != 1 {
		t.Fatal("event not fanned out")
	}
	// Snapshots reach only the sinks that accept them.
	ss, ok := m.(SnapshotSink)
	if !ok {
		t.Fatal("MultiSink must forward snapshots")
	}
	ss.RecordSnapshot(SnapshotRecord{Node: 1})
	if !strings.Contains(buf.String(), `"t":"snapshot"`) {
		t.Fatalf("snapshot not forwarded to NDJSON: %q", buf.String())
	}
}
