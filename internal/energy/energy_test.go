package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPaperModelValues(t *testing.T) {
	// Idle should be "nearly 10% of receive" and "about 5% of transmit".
	if r := IdlePower / rxPower; r < 0.08 || r > 0.1 {
		t.Errorf("idle/rx ratio = %.3f, paper says ~0.1", r)
	}
	if r := IdlePower / txPower; r < 0.04 || r > 0.06 {
		t.Errorf("idle/tx ratio = %.3f, paper says ~0.05", r)
	}
}

func TestAirtime(t *testing.T) {
	// 64-byte event: 512 bits / 1.6 Mb/s = 320 µs.
	if at := Airtime(64); at != 320*time.Microsecond {
		t.Fatalf("Airtime(64) = %v, want 320µs", at)
	}
	// 36-byte message: 288 bits / 1.6 Mb/s = 180 µs.
	if at := Airtime(36); at != 180*time.Microsecond {
		t.Fatalf("Airtime(36) = %v, want 180µs", at)
	}
	if at := Airtime(0); at != 0 {
		t.Fatalf("Airtime(0) = %v, want 0", at)
	}
}

func TestMeterAccounting(t *testing.T) {
	var e Meter
	e.AddUpTime(10 * time.Second)

	at := e.Transmit(64)
	if at != 320*time.Microsecond {
		t.Fatalf("tx airtime = %v", at)
	}
	e.ChargeReceive(RxCharge(64))

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
	new(Meter).AddUpTime(-time.Second)
}

// Property: total energy is monotone in activity and never less than the
// idle baseline.
func TestPropertyMonotoneTotals(t *testing.T) {
	f := func(ops []bool, up uint16) bool {
		var e Meter
		e.AddUpTime(time.Duration(up) * time.Millisecond)
		prev := e.TotalJoules()
		for _, tx := range ops {
			if tx {
				e.Transmit(64)
			} else {
				e.ChargeReceive(RxCharge(36))
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
	var tx, rx Meter
	tx.Transmit(64)
	rx.ChargeReceive(RxCharge(64))
	if tx.CommJoules() <= rx.CommJoules() {
		t.Fatal("tx should cost more than rx")
	}
	if rx.CommJoules() <= 0 {
		t.Fatal("rx should cost more than idle")
	}
}

// referenceReceive is the receive charge of one frame computed from its size
// alone, per receiver, with the paper's radio held in float64 variables:
// RxCharge, whose power difference the compiler folds from constants, and
// ChargeReceive must reproduce this run-time arithmetic bit for bit.
func referenceReceive(bytes int) (time.Duration, float64) {
	rx, idle, rate := 0.395, 0.035, 1.6e6
	bits := float64(bytes) * 8
	at := time.Duration(bits / rate * float64(time.Second))
	return at, (rx - idle) * at.Seconds()
}

func TestRxChargeMatchesReference(t *testing.T) {
	for b := 1; b <= 2048; b++ {
		at, j := referenceReceive(b)
		if got := Airtime(b); got != at {
			t.Fatalf("Airtime(%d) = %v, reference %v", b, got, at)
		}
		if got := RxCharge(b); math.Float64bits(got) != math.Float64bits(j) {
			t.Fatalf("RxCharge(%d) = %v, reference %v", b, got, j)
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
	var e Meter
	var refJoules float64
	for _, b := range sizes {
		e.ChargeReceive(RxCharge(b))
		_, j := referenceReceive(b)
		refJoules += j
	}
	if math.Float64bits(e.RxJoules()) != math.Float64bits(refJoules) {
		t.Fatalf("RxJoules = %v, reference sum %v", e.RxJoules(), refJoules)
	}
	if e.RxPackets() != len(sizes) {
		t.Fatalf("%d packets charged, reference %d", e.RxPackets(), len(sizes))
	}
}
