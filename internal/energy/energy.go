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

// The paper's radio (§5.1).
const (
	txPower = 0.660 // transmit draw in watts
	rxPower = 0.395 // receive draw in watts
	// IdlePower is the idle-listening draw in watts, about 10% of receive.
	IdlePower = 0.035
	bitRate   = 1.6e6 // channel rate in bits/s
)

// Airtime returns the serialization time of a packet of the given size.
func Airtime(bytes int) time.Duration {
	bits := float64(bytes) * 8
	return time.Duration(bits / bitRate * float64(time.Second))
}

// RxCharge returns the joules above idle that one receiver spends on a
// packet of the given size. Every receiver of a transmission pays the same
// charge, so the MAC computes it once per frame.
func RxCharge(bytes int) float64 {
	return (rxPower - IdlePower) * Airtime(bytes).Seconds()
}

// Meter accumulates dissipated energy for one node. The zero value is a
// meter that has charged nothing.
type Meter struct {
	txJoules float64
	rxJoules float64
	upTime   time.Duration // total powered-on time, for the idle baseline

	txPackets int
	rxPackets int
}

// Transmit charges the node for transmitting a packet of the given size and
// returns its airtime. Only the increment over idle is charged beyond the
// baseline (the baseline covers IdlePower for the whole up-time).
func (e *Meter) Transmit(bytes int) time.Duration {
	at := Airtime(bytes)
	e.txJoules += (txPower - IdlePower) * at.Seconds()
	e.txPackets++
	return at
}

// ChargeReceive charges the node for receiving (or overhearing) one frame
// whose charge the caller computed with RxCharge, once for all of the
// frame's receivers. Collision victims pay this too: their radio was busy
// for the corrupted frame's airtime.
func (e *Meter) ChargeReceive(joules float64) {
	e.rxJoules += joules
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
	return IdlePower * e.upTime.Seconds()
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
