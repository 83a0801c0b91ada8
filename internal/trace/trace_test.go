package trace

import (
	"testing"
	"time"

	"repro/internal/msg"
)

func ev(i int, kind msg.Kind) Event {
	return Event{At: time.Duration(i) * time.Second, Op: OpSend, Node: 1, Peer: 2, Kind: kind}
}

func TestOpString(t *testing.T) {
	if OpSend.String() != "send" || OpReceive.String() != "recv" {
		t.Fatal("op names wrong")
	}
	if Op(9).String() != "op(9)" {
		t.Fatal("unknown op formatting")
	}
}

func TestRecorderKeepsEventsInOrder(t *testing.T) {
	r := NewRecorder(10)
	for i := 0; i < 5; i++ {
		r.Record(ev(i, msg.KindData))
	}
	events := r.Events()
	if len(events) != 5 {
		t.Fatalf("got %d events", len(events))
	}
	for i, e := range events {
		if e.At != time.Duration(i)*time.Second {
			t.Fatalf("order broken: %v", events)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d", r.Total())
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 7; i++ {
		r.Record(ev(i, msg.KindData))
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("ring kept %d, want 3", len(events))
	}
	// Oldest-first: 4, 5, 6.
	for i, e := range events {
		if want := time.Duration(i+4) * time.Second; e.At != want {
			t.Fatalf("event %d at %v, want %v", i, e.At, want)
		}
	}
	if r.Total() != 7 {
		t.Fatalf("Total = %d, want 7 including evicted", r.Total())
	}
}

func TestKindFilter(t *testing.T) {
	r := NewRecorder(10)
	r.SetFilter(KindFilter(msg.KindReinforce))
	r.Record(ev(0, msg.KindData))
	r.Record(ev(1, msg.KindReinforce))
	r.Record(ev(2, msg.KindInterest))
	if len(r.Events()) != 1 || r.Events()[0].Kind != msg.KindReinforce {
		t.Fatalf("filter failed: %v", r.Events())
	}
}

func TestNodeFilterAndAnd(t *testing.T) {
	f := And(KindFilter(msg.KindData, msg.KindInterest), KindFilter(msg.KindData, msg.KindReinforce))
	if !f(Event{Kind: msg.KindData}) {
		t.Fatal("event both filters keep rejected")
	}
	if f(Event{Kind: msg.KindInterest}) {
		t.Fatal("event the second filter rejects accepted")
	}
	if f(Event{Kind: msg.KindReinforce}) {
		t.Fatal("event the first filter rejects accepted")
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	r := NewRecorder(0)
	r.Record(ev(0, msg.KindData))
	if len(r.Events()) != 1 {
		t.Fatal("zero-capacity recorder should clamp to 1")
	}
}
