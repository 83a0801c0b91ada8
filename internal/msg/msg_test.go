package msg

import "testing"

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindInterest, "interest"},
		{KindExploratory, "exploratory"},
		{KindData, "data"},
		{KindIncCost, "inccost"},
		{KindReinforce, "reinforce"},
		{KindNegReinforce, "negreinforce"},
		{KindRepairProbe, "repairprobe"},
		{Kind(0), "kind(0)"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.k), got, tt.want)
		}
		k, err := ParseKind(tt.want)
		valid := tt.k >= KindInterest && tt.k <= KindRepairProbe
		if valid && (err != nil || k != tt.k) {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tt.want, k, err, tt.k)
		}
		if !valid && err == nil {
			t.Errorf("ParseKind(%q) accepted an invalid kind as %v", tt.want, k)
		}
	}
}

func TestPaperSizes(t *testing.T) {
	if EventBytes != 64 {
		t.Errorf("EventBytes = %d, paper says 64", EventBytes)
	}
	if ControlBytes != 36 {
		t.Errorf("ControlBytes = %d, paper says 36", ControlBytes)
	}
	if LinearItemBytes != 28 || LinearHeaderBytes != 36 {
		t.Errorf("linear params %d/%d, paper says 28/36", LinearItemBytes, LinearHeaderBytes)
	}
}

func TestItemKey(t *testing.T) {
	a := Item{Source: 1, Seq: 2, GenTime: 100}
	b := Item{Source: 1, Seq: 2, GenTime: 999}
	if a.Key() != b.Key() {
		t.Fatal("keys should ignore GenTime")
	}
	c := Item{Source: 1, Seq: 3}
	if a.Key() == c.Key() {
		t.Fatal("different seqs should have different keys")
	}
}

func TestValidate(t *testing.T) {
	valid := Message{Kind: KindData, Items: []Item{{Source: 1}}, Bytes: 64}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid message rejected: %v", err)
	}
	tests := []struct {
		name string
		m    Message
	}{
		{"zero kind", Message{Bytes: 10}},
		{"kind too large", Message{Kind: Kind(8), Bytes: 10}},
		{"zero size", Message{Kind: KindInterest}},
		{"data without items", Message{Kind: KindData, Bytes: 64}},
		{"exploratory with two items", Message{
			Kind: KindExploratory, Bytes: 64,
			Items: []Item{{Source: 1}, {Source: 2}},
		}},
		{"negative E", Message{Kind: KindInterest, Bytes: 36, E: -1}},
		{"negative C", Message{Kind: KindInterest, Bytes: 36, C: -1}},
		{"negative W", Message{Kind: KindInterest, Bytes: 36, W: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.m.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}
