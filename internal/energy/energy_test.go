package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPaperModelValues(t *testing.T) {
	m := PaperModel()
	if m.TxPower != 0.660 || m.RxPower != 0.395 || m.IdlePower != 0.035 {
		t.Fatalf("paper powers wrong: %+v", m)
	}
	if m.BitRate != 1.6e6 {
		t.Fatalf("paper bit rate wrong: %v", m.BitRate)
	}
	// Idle should be "nearly 10% of receive" and "about 5% of transmit".
	if r := m.IdlePower / m.RxPower; r < 0.08 || r > 0.1 {
		t.Errorf("idle/rx ratio = %.3f, paper says ~0.1", r)
	}
	if r := m.IdlePower / m.TxPower; r < 0.04 || r > 0.06 {
		t.Errorf("idle/tx ratio = %.3f, paper says ~0.05", r)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		m    Model
	}{
		{"zero tx", Model{RxPower: 1, IdlePower: 0.1, BitRate: 1}},
		{"zero rx", Model{TxPower: 1, IdlePower: 0.1, BitRate: 1}},
		{"negative idle", Model{TxPower: 1, RxPower: 1, IdlePower: -0.1, BitRate: 1}},
		{"zero bitrate", Model{TxPower: 1, RxPower: 1, IdlePower: 0.1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.m.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestAirtime(t *testing.T) {
	m := PaperModel()
	// 64-byte event: 512 bits / 1.6 Mb/s = 320 µs.
	if at := m.Airtime(64); at != 320*time.Microsecond {
		t.Fatalf("Airtime(64) = %v, want 320µs", at)
	}
	// 36-byte message: 288 bits / 1.6 Mb/s = 180 µs.
	if at := m.Airtime(36); at != 180*time.Microsecond {
		t.Fatalf("Airtime(36) = %v, want 180µs", at)
	}
	if at := m.Airtime(0); at != 0 {
		t.Fatalf("Airtime(0) = %v, want 0", at)
	}
}

func TestMeterAccounting(t *testing.T) {
	m := PaperModel()
	e := NewMeter(m)
	e.AddUpTime(10 * time.Second)

	at := e.Transmit(64)
	if at != 320*time.Microsecond {
		t.Fatalf("tx airtime = %v", at)
	}
	e.ChargeReceive(m.RxCharge(64))

	wantIdle := 0.035 * 10
	if got := e.IdleJoules(); math.Abs(got-wantIdle) > 1e-9 {
		t.Errorf("IdleJoules = %v, want %v", got, wantIdle)
	}
	wantTx := (0.660 - 0.035) * 320e-6
	if got := e.TxJoules(); math.Abs(got-wantTx) > 1e-12 {
		t.Errorf("TxJoules = %v, want %v", got, wantTx)
	}
	wantRx := (0.395 - 0.035) * 320e-6
	if got := e.RxJoules(); math.Abs(got-wantRx) > 1e-12 {
		t.Errorf("RxJoules = %v, want %v", got, wantRx)
	}
	if got, want := e.CommJoules(), wantTx+wantRx; math.Abs(got-want) > 1e-12 {
		t.Errorf("CommJoules = %v, want %v", got, want)
	}
	if got, want := e.TotalJoules(), wantIdle+wantTx+wantRx; math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalJoules = %v, want %v", got, want)
	}
	if e.TxPackets() != 1 || e.RxPackets() != 1 {
		t.Errorf("packet counts tx=%d rx=%d", e.TxPackets(), e.RxPackets())
	}
	if e.UpTime() != 10*time.Second {
		t.Errorf("UpTime = %v", e.UpTime())
	}
}

func TestNegativeUpTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMeter(PaperModel()).AddUpTime(-time.Second)
}

// Property: total energy is monotone in activity and never less than the
// idle baseline.
func TestPropertyMonotoneTotals(t *testing.T) {
	f := func(ops []bool, up uint16) bool {
		e := NewMeter(PaperModel())
		e.AddUpTime(time.Duration(up) * time.Millisecond)
		prev := e.TotalJoules()
		for _, tx := range ops {
			if tx {
				e.Transmit(64)
			} else {
				e.ChargeReceive(PaperModel().RxCharge(36))
			}
			cur := e.TotalJoules()
			if cur < prev {
				return false
			}
			prev = cur
		}
		return e.TotalJoules() >= e.IdleJoules()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Transmitting costs more than receiving the same packet, which costs more
// than idling over the same span — the ordering the mechanisms rely on.
func TestPowerOrdering(t *testing.T) {
	tx := NewMeter(PaperModel())
	rx := NewMeter(PaperModel())
	tx.Transmit(64)
	rx.ChargeReceive(PaperModel().RxCharge(64))
	if tx.CommJoules() <= rx.CommJoules() {
		t.Fatal("tx should cost more than rx")
	}
	if rx.CommJoules() <= 0 {
		t.Fatal("rx should cost more than idle")
	}
}

// referenceReceive is the receive charge of one frame computed from its size
// alone, per receiver: the reference RxCharge and ChargeReceive must
// reproduce bit for bit.
func referenceReceive(m Model, bytes int) (time.Duration, float64) {
	at := m.Airtime(bytes)
	return at, (m.RxPower - m.IdlePower) * at.Seconds()
}

// referenceModels are the paper's model and two other valid ones: a
// low-power radio that draws more receiving than transmitting, and one with
// no idle draw whose bit rate leaves airtimes fractional in nanoseconds
// before truncation.
func referenceModels() []Model {
	return []Model{
		PaperModel(),
		{TxPower: 0.0522, RxPower: 0.0591, IdlePower: 0.00042, BitRate: 250e3},
		{TxPower: 1.3, RxPower: 0.9, IdlePower: 0, BitRate: 11e6 / 3},
	}
}

func TestRxChargeMatchesReference(t *testing.T) {
	for _, m := range referenceModels() {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		for b := 1; b <= 2048; b++ {
			at, j := referenceReceive(m, b)
			c := m.RxCharge(b)
			if c.Airtime != at {
				t.Fatalf("%+v: RxCharge(%d).Airtime = %v, reference %v", m, b, c.Airtime, at)
			}
			if math.Float64bits(c.Joules) != math.Float64bits(j) {
				t.Fatalf("%+v: RxCharge(%d).Joules = %v, reference %v", m, b, c.Joules, j)
			}
		}
	}
}

func TestChargeReceiveMatchesReceive(t *testing.T) {
	// One mixed size sequence charged once per frame through
	// ChargeReceive and by summing the reference formula in the same order.
	rng := rand.New(rand.NewSource(5))
	sizes := make([]int, 5000)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(2048)
	}
	for _, m := range referenceModels() {
		e := NewMeter(m)
		var refJoules float64
		var refActive time.Duration
		for _, b := range sizes {
			e.ChargeReceive(m.RxCharge(b))
			at, j := referenceReceive(m, b)
			refJoules += j
			refActive += at
		}
		if math.Float64bits(e.RxJoules()) != math.Float64bits(refJoules) {
			t.Fatalf("%+v: RxJoules = %v, reference sum %v", m, e.RxJoules(), refJoules)
		}
		if e.RxPackets() != len(sizes) || e.activeTime != refActive {
			t.Fatalf("%+v: %d packets over %v active, reference %d over %v",
				m, e.RxPackets(), e.activeTime, len(sizes), refActive)
		}
	}
}
