package agg

import (
	"testing"
	"testing/quick"

	"repro/internal/msg"
)

func TestPerfect(t *testing.T) {
	p := Perfect{}
	for _, n := range []int{1, 2, 5, 100} {
		if got := p.Size(n); got != msg.EventBytes {
			t.Errorf("Perfect.Size(%d) = %d, want %d", n, got, msg.EventBytes)
		}
	}
}

func TestLinearPaperValues(t *testing.T) {
	l := Linear{}
	tests := []struct {
		items, want int
	}{
		{1, 1*28 + 36},
		{2, 2*28 + 36},
		{5, 5*28 + 36},
		{14, 14*28 + 36},
	}
	for _, tt := range tests {
		if got := l.Size(tt.items); got != tt.want {
			t.Errorf("Linear.Size(%d) = %d, want %d", tt.items, got, tt.want)
		}
	}
}

func TestPacking(t *testing.T) {
	p := Packing{}
	// One item: same as a plain event.
	if got := p.Size(1); got != msg.EventBytes {
		t.Errorf("Packing.Size(1) = %d, want %d", got, msg.EventBytes)
	}
	// Two items: strictly less than two separate events.
	if got := p.Size(2); got >= 2*msg.EventBytes {
		t.Errorf("Packing.Size(2) = %d, not smaller than 2 events", got)
	}
}

func TestTimestamp(t *testing.T) {
	a := Timestamp{}
	// One item: a full event.
	if got := a.Size(1); got != msg.EventBytes {
		t.Errorf("Timestamp.Size(1) = %d, want %d", got, msg.EventBytes)
	}
	// Each additional correlated item saves the shared timestamp fields.
	one, two := a.Size(1), a.Size(2)
	perItem := two - one
	if perItem >= msg.EventBytes-msg.LinearHeaderBytes {
		t.Errorf("second item costs %d, no timestamp sharing", perItem)
	}
	if perItem <= 0 {
		t.Errorf("second item costs %d; timestamp aggregation is lossless, items keep payload", perItem)
	}
}

func TestOutline(t *testing.T) {
	a := Outline{}
	if a.Size(1) >= a.Size(4) {
		t.Error("outline should grow until the cap")
	}
	if a.Size(4) != a.Size(100) {
		t.Errorf("outline must saturate at the cap: %d vs %d", a.Size(4), a.Size(100))
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]Func{
		"perfect": Perfect{}, "linear": Linear{}, "packing": Packing{},
		"timestamp": Timestamp{}, "outline": Outline{},
	} {
		f, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if f != want {
			t.Errorf("ByName(%q) = %T, want %T", name, f, want)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestZeroItemsPanics(t *testing.T) {
	for _, f := range []Func{Perfect{}, Linear{}, Packing{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: expected panic for 0 items", f)
				}
			}()
			f.Size(0)
		}()
	}
}

// Property: every aggregation function is monotone in item count, and no
// lossless function beats perfect aggregation.
func TestPropertyMonotoneAndBounded(t *testing.T) {
	fns := []Func{Perfect{}, Linear{}, Packing{}}
	check := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		for _, f := range fns {
			if f.Size(n+1) < f.Size(n) {
				return false
			}
			if f.Size(n) < (Perfect{}).Size(n) && n > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The paper's premise: aggregation must reduce total data size to be worth
// it. Perfect aggregation of n items always beats n separate events; linear
// aggregation saves only headers.
func TestAggregationSavings(t *testing.T) {
	n := 5
	separate := n * msg.EventBytes // 320
	if (Perfect{}).Size(n) >= separate {
		t.Error("perfect aggregation saves nothing")
	}
	lin := (Linear{}).Size(n) // 176
	if lin >= separate {
		t.Error("linear aggregation should still beat separate sends")
	}
	if lin <= (Perfect{}).Size(n) {
		t.Error("linear should be worse than perfect for n>1")
	}
}
