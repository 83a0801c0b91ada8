// Package energy implements the paper's radio energy model and per-node
// accounting.
//
// The paper alters the ns-2 model "to more closely mimic realistic sensor
// network radios": idle dissipation ≈ 35 mW (about 10% of receive), receive
// 395 mW, transmit 660 mW. Energy is power × time, with transmit/receive
// time determined by packet size over the 1.6 Mb/s channel. Idle energy
// accrues for the whole interval a node is powered on and not
// transmitting/receiving; we account it as a baseline over up-time and add
// the *increment* over idle for tx/rx airtime so intervals never double
// count.
package energy

import (
	"fmt"
	"time"
)

// Model holds the radio power levels and channel bit rate.
type Model struct {
	// TxPower is the transmit power draw in watts (paper: 0.660 W).
	TxPower float64
	// RxPower is the receive power draw in watts (paper: 0.395 W).
	RxPower float64
	// IdlePower is the idle-listening power draw in watts (paper: 0.035 W).
	IdlePower float64
	// BitRate is the channel rate in bits/s (paper: 1.6 Mb/s).
	BitRate float64
}

// PaperModel returns the energy model from the paper's methodology section.
func PaperModel() Model {
	return Model{TxPower: 0.660, RxPower: 0.395, IdlePower: 0.035, BitRate: 1.6e6}
}

// Validate reports the first problem with the model, if any.
func (m Model) Validate() error {
	switch {
	case m.TxPower <= 0 || m.RxPower <= 0 || m.IdlePower < 0:
		return fmt.Errorf("energy: non-positive power in %+v", m)
	case m.BitRate <= 0:
		return fmt.Errorf("energy: non-positive bit rate %v", m.BitRate)
	default:
		return nil
	}
}

// Airtime returns the serialization time of a packet of the given size.
func (m Model) Airtime(bytes int) time.Duration {
	bits := float64(bytes) * 8
	return time.Duration(bits / m.BitRate * float64(time.Second))
}

// Charge is the cost one receiver pays for one frame: the frame's airtime
// and the joules above idle spent receiving it. Every receiver of a
// transmission pays the same charge, so the MAC computes it once per frame.
type Charge struct {
	Airtime time.Duration
	Joules  float64
}

// RxCharge returns the receive charge of a packet of the given size.
func (m Model) RxCharge(bytes int) Charge {
	at := m.Airtime(bytes)
	return Charge{Airtime: at, Joules: (m.RxPower - m.IdlePower) * at.Seconds()}
}

// Meter accumulates dissipated energy for one node. The zero value is not
// usable; create meters with NewMeter.
type Meter struct {
	model Model

	txJoules   float64
	rxJoules   float64
	upTime     time.Duration // total powered-on time, for the idle baseline
	activeTime time.Duration // time spent transmitting or receiving

	txPackets int
	rxPackets int
}

// NewMeter returns a meter using the given model.
func NewMeter(model Model) *Meter {
	return &Meter{model: model}
}

// Transmit charges the node for transmitting a packet of the given size and
// returns its airtime. Only the increment over idle is charged beyond the
// baseline (the baseline covers IdlePower for the whole up-time).
func (e *Meter) Transmit(bytes int) time.Duration {
	at := e.model.Airtime(bytes)
	e.txJoules += (e.model.TxPower - e.model.IdlePower) * at.Seconds()
	e.activeTime += at
	e.txPackets++
	return at
}

// ChargeReceive charges the node for receiving (or overhearing) one frame
// whose charge the caller computed with RxCharge under this meter's model,
// once for all of the frame's receivers. Collision victims pay this too:
// their radio was busy for the corrupted frame's airtime.
func (e *Meter) ChargeReceive(c Charge) {
	e.rxJoules += c.Joules
	e.activeTime += c.Airtime
	e.rxPackets++
}

// AddUpTime extends the node's powered-on time, charging idle power for it.
// Failure injection calls this only for the intervals a node is on.
func (e *Meter) AddUpTime(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("energy: negative up-time %v", d))
	}
	e.upTime += d
}

// TxJoules returns the transmit energy above the idle baseline.
func (e *Meter) TxJoules() float64 { return e.txJoules }

// RxJoules returns the receive energy above the idle baseline.
func (e *Meter) RxJoules() float64 { return e.rxJoules }

// IdleJoules returns the idle baseline energy over the recorded up-time.
func (e *Meter) IdleJoules() float64 {
	return e.model.IdlePower * e.upTime.Seconds()
}

// CommJoules returns the communication-induced energy (tx + rx increments
// over idle). EXPERIMENTS.md reports this alongside Total: it isolates
// protocol behaviour from the constant idle floor.
func (e *Meter) CommJoules() float64 { return e.txJoules + e.rxJoules }

// TotalJoules returns all dissipated energy: idle baseline plus
// communication increments — the paper's "dissipated energy".
func (e *Meter) TotalJoules() float64 { return e.IdleJoules() + e.CommJoules() }

// TxPackets returns the number of transmissions charged.
func (e *Meter) TxPackets() int { return e.txPackets }

// RxPackets returns the number of receptions charged.
func (e *Meter) RxPackets() int { return e.rxPackets }

// UpTime returns the total powered-on time recorded.
func (e *Meter) UpTime() time.Duration { return e.upTime }
