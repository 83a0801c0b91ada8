// Package chaos is a composable fault-injection layer for the simulator.
// It runs beside the §5.3 node-failure waves (core.Config.Failures), which
// it times as fault events, and adds the fault classes the paper's clean
// outage model leaves out:
//
//   - per-link loss: i.i.d. frame drops, a two-state Gilbert–Elliott bursty
//     channel, and asymmetric (one-directional) link degradation, all hooked
//     into the MAC delivery path via mac.Network.SetLinkFilter;
//   - crash-with-amnesia node faults: unlike a radio toggle, a crash wipes
//     the node's diffusion soft state so re-convergence is exercised;
//   - scheduled network partitions: all links crossing a geometric line are
//     cut for a time window.
//
// Every injection is paired with observability: a runtime protocol-invariant
// checker (see Checker) and per-fault recovery metrics (metrics.Recovery).
//
// Determinism contract: every random choice flows through sim.Kernel.Rand(),
// and a configuration that arms no fault class (at most the checker, which
// only observes) consumes exactly the RNG stream of a run without the
// layer, so beside the failure waves the seed's §5.3 numbers are reproduced
// bit for bit.
package chaos

import (
	"fmt"
	"time"

	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config describes the fault mix for one run. The zero value injects
// nothing.
type Config struct {
	// Loss configures the per-link loss models on the MAC delivery path.
	Loss LossConfig

	// Amnesia configures crash-with-amnesia node faults.
	Amnesia AmnesiaConfig

	// Partitions schedules link cuts along geometric lines.
	Partitions []Partition

	// CheckInvariants installs the runtime protocol-invariant checker as a
	// diffusion tracer (see Checker for the invariant list).
	CheckInvariants bool

	// SelfTestViolation, when positive, schedules one synthetic invariant
	// violation at that virtual time. It exists to exercise the
	// dump-on-violation observability path (flight recorder, CI smoke)
	// end to end; it requires CheckInvariants.
	SelfTestViolation time.Duration
}

// Validate reports the first problem with the configuration, if any.
func (c Config) Validate() error {
	if err := c.Loss.Validate(); err != nil {
		return err
	}
	if err := c.Amnesia.Validate(); err != nil {
		return err
	}
	for i, p := range c.Partitions {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("chaos: partition %d: %w", i, err)
		}
	}
	if c.SelfTestViolation < 0 {
		return fmt.Errorf("chaos: negative self-test violation time %v", c.SelfTestViolation)
	}
	if c.SelfTestViolation > 0 && !c.CheckInvariants {
		return fmt.Errorf("chaos: self-test violation requires CheckInvariants")
	}
	return nil
}

// LossConfig describes the per-link loss models. All models see each
// (transmission, in-range receiver) pair exactly once, at airtime start, so
// a frame's fate on a link is decided coherently for the data and its ACK
// accounting (see mac.LinkFilter).
type LossConfig struct {
	// Drop is an i.i.d. per-frame drop probability applied to every link.
	Drop float64

	// Burst overlays a two-state Gilbert–Elliott channel, tracked
	// independently per directed link.
	Burst bool

	// AsymmetryFraction of directed links are degraded with an extra
	// AsymmetryDrop i.i.d. loss; the reverse direction is unaffected. The
	// degraded set is drawn once at Start.
	AsymmetryFraction float64
	AsymmetryDrop     float64
}

// The Gilbert–Elliott channel is moderately bursty: ~17% of frames in the
// bad state (mean burst ≈ 4 frames), near-clean otherwise. Each frame on a
// link first suffers the current state's drop rate, then the state advances
// with the per-frame transition probabilities; links start in the good
// state.
const (
	burstGoodToBad float64 = 0.05
	burstBadToGood float64 = 0.25
	burstDropGood  float64 = 0.01
	burstDropBad   float64 = 0.6
)

// Validate reports the first problem with the loss configuration, if any.
func (l LossConfig) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("chaos: %s %v outside [0,1]", name, v)
		}
		return nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"drop", l.Drop},
		{"asymmetry fraction", l.AsymmetryFraction},
		{"asymmetry drop", l.AsymmetryDrop},
	} {
		if err := check(p.name, p.v); err != nil {
			return err
		}
	}
	return nil
}

func (l LossConfig) enabled() bool {
	return l.Drop > 0 || l.Burst ||
		(l.AsymmetryFraction > 0 && l.AsymmetryDrop > 0)
}

// AmnesiaConfig describes the crash-with-amnesia fault process: a Poisson
// stream of crashes across the network, each picking a uniform live
// unprotected node, powering it off, wiping its protocol soft state, and
// rebooting it after Downtime.
type AmnesiaConfig struct {
	// MeanInterval is the mean exponential inter-arrival between crashes
	// network-wide; zero disables the process.
	MeanInterval time.Duration
	// Downtime is how long a crashed node stays off before rebooting.
	Downtime time.Duration
}

// Validate reports the first problem with the amnesia configuration, if any.
func (a AmnesiaConfig) Validate() error {
	switch {
	case a.MeanInterval < 0:
		return fmt.Errorf("chaos: negative amnesia interval %v", a.MeanInterval)
	case a.MeanInterval > 0 && a.Downtime <= 0:
		return fmt.Errorf("chaos: amnesia enabled with non-positive downtime %v", a.Downtime)
	default:
		return nil
	}
}

// Partition cuts every link crossing the infinite line through A and B
// during [Start, End). Nodes exactly on the line keep all their links.
type Partition struct {
	Start, End time.Duration
	A, B       geom.Point
}

// Validate reports the first problem with the partition, if any.
func (p Partition) Validate() error {
	switch {
	case p.End <= p.Start || p.Start < 0:
		return fmt.Errorf("window [%v, %v) is empty or negative", p.Start, p.End)
	case p.A == p.B:
		return fmt.Errorf("degenerate cut line through %v", p.A)
	default:
		return nil
	}
}

// Cuts reports whether points a and b lie strictly on opposite sides of the
// partition line (cross-product sign test).
func (p Partition) Cuts(a, b geom.Point) bool {
	side := func(q geom.Point) float64 {
		return (p.B.X-p.A.X)*(q.Y-p.A.Y) - (p.B.Y-p.A.Y)*(q.X-p.A.X)
	}
	return side(a)*side(b) < 0
}

// Wiper erases a node's protocol soft state at crash time.
// diffusion.Runtime satisfies it; the idealized schemes have no soft state
// worth wiping and run with a nil Wiper (crashes still toggle the radio).
type Wiper interface {
	Amnesia(id topology.NodeID)
}

// TreeSource exposes the protocol's current data-gradient structure for the
// cycle audit. diffusion.Runtime satisfies it.
type TreeSource interface {
	DataGradients(id topology.NodeID, iid msg.InterestID) []topology.NodeID
}

// Binding connects an Engine to the run's protocol substrate. Trees and
// Wiper may be nil for non-diffusion schemes.
type Binding struct {
	// Sched is the run's failure schedule; waves, crashes, and the battery
	// watcher all share it so up-time accounting stays exact.
	Sched *failure.Schedule
	// Protect lists nodes exempt from crash faults (typically endpoints).
	Protect []topology.NodeID
	// Trees and Wiper give the checker and the amnesia fault access to the
	// protocol runtime.
	Trees TreeSource
	Wiper Wiper
	// Interests is the number of interests (sinks) for the tree audit.
	Interests int
}

// Engine drives the configured fault processes on the simulation kernel.
// Construct with New, connect with Bind, launch with Start (after the
// schedule's own Start), and collect the Report with Finish.
type Engine struct {
	kernel *sim.Kernel
	net    *mac.Network
	field  *topology.Field
	cfg    Config

	sched    *failure.Schedule
	protect  map[topology.NodeID]bool
	wiper    Wiper
	checker  *Checker
	recovery *metrics.RecoveryTracker

	asym    map[link]bool
	gilbert map[link]*geState

	crashes    int
	topoFaults int
	bound      bool
}

type link struct{ from, to topology.NodeID }

type geState struct{ bad bool }

// New validates the configuration and builds an engine over the network.
func New(kernel *sim.Kernel, net *mac.Network, field *topology.Field, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		kernel:   kernel,
		net:      net,
		field:    field,
		cfg:      cfg,
		protect:  make(map[topology.NodeID]bool),
		recovery: metrics.NewRecoveryTracker(),
	}
	if cfg.CheckInvariants {
		e.checker = newChecker(kernel, net, field)
	}
	return e, nil
}

// Checker returns the invariant checker, or nil when CheckInvariants is off.
// Install it as the run's diffusion tracer.
func (e *Engine) Checker() *Checker { return e.checker }

// Bind connects the engine to the run's substrate. Call after constructing
// the protocol runtime and failure schedule, before Start. Every wave of the
// schedule that fails a node becomes a fault event for the recovery
// metrics.
func (e *Engine) Bind(b Binding) {
	if b.Sched == nil {
		panic("chaos: Bind with nil schedule")
	}
	e.sched = b.Sched
	e.wiper = b.Wiper
	for _, id := range b.Protect {
		e.protect[id] = true
	}
	if e.checker != nil {
		e.checker.bind(b.Trees, b.Interests)
	}
	b.Sched.SetOnWave(func(down []topology.NodeID) {
		if len(down) > 0 {
			e.recovery.Fault(e.kernel.Now())
		}
	})
	e.bound = true
}

// WrapObserver interposes the engine on the run's metrics observer so sink
// deliveries feed the recovery tracker and the duplicate-suppression
// invariant. The wrapper satisfies diffusion.Observer and
// idealized.Observer.
func (e *Engine) WrapObserver(inner Observer) *ObserverWrapper {
	return &ObserverWrapper{engine: e, inner: inner}
}

// Observer is the observer shape shared by the diffusion and idealized
// runtimes.
type Observer interface {
	Generated(src topology.NodeID, item msg.Item)
	Delivered(sink topology.NodeID, item msg.Item, delay time.Duration)
}

// ObserverWrapper forwards observer callbacks while timestamping deliveries.
type ObserverWrapper struct {
	engine *Engine
	inner  Observer
}

// Generated implements the observer shape.
func (o *ObserverWrapper) Generated(src topology.NodeID, item msg.Item) {
	o.engine.recovery.Generated(o.engine.kernel.Now())
	o.inner.Generated(src, item)
}

// Delivered implements the observer shape.
func (o *ObserverWrapper) Delivered(sink topology.NodeID, item msg.Item, delay time.Duration) {
	o.engine.recovery.Delivery(o.engine.kernel.Now())
	if c := o.engine.checker; c != nil {
		c.delivered(sink, item)
	}
	o.inner.Delivered(sink, item, delay)
}

// Start launches the configured fault processes. Waves are driven by the
// failure schedule's own Start; Start here arms everything beyond them, and
// arms nothing — consuming no randomness and scheduling no events — when no
// fault class is configured, preserving seed-for-seed equivalence with the
// plain failure path.
func (e *Engine) Start() {
	if !e.bound {
		panic("chaos: Start before Bind")
	}
	if e.cfg.Loss.enabled() || len(e.cfg.Partitions) > 0 {
		if e.cfg.Loss.AsymmetryFraction > 0 && e.cfg.Loss.AsymmetryDrop > 0 {
			e.drawAsymmetricLinks()
		}
		if e.cfg.Loss.Burst {
			e.gilbert = make(map[link]*geState)
		}
		e.net.SetLinkFilter(e.linkFilter)
	}
	if e.cfg.Amnesia.MeanInterval > 0 {
		e.scheduleCrash()
	}
	for _, p := range e.cfg.Partitions {
		// The cut itself is purely time-gated in the link filter; this timer
		// only stamps the fault event for the recovery metrics.
		delay := p.Start - e.kernel.Now()
		if delay < 0 {
			delay = 0
		}
		e.kernel.Schedule(delay, func() {
			e.recovery.Fault(e.kernel.Now())
		})
	}
	if e.checker != nil {
		e.checker.startAudits()
		if d := e.cfg.SelfTestViolation; d > 0 {
			// Scheduling consumes no randomness, so the synthetic breach
			// perturbs nothing but the observability path it exists to test.
			e.kernel.Schedule(d, func() {
				e.checker.SelfTest(fmt.Sprintf("forced at %v by SelfTestViolation", d))
			})
		}
	}
}

// drawAsymmetricLinks marks AsymmetryFraction of the directed in-range links
// as degraded, scanning nodes and neighbors in ID order so the draw is
// deterministic in the seed.
func (e *Engine) drawAsymmetricLinks() {
	e.asym = make(map[link]bool)
	rng := e.kernel.Rand()
	for i := 0; i < e.field.Len(); i++ {
		from := topology.NodeID(i)
		for _, to := range e.field.Neighbors(from) {
			if rng.Float64() < e.cfg.Loss.AsymmetryFraction {
				e.asym[link{from, to}] = true
			}
		}
	}
}

// linkFilter implements mac.LinkFilter: it returns false to suppress the
// reception. Partitions are checked first (no randomness), then the loss
// models in a fixed order so the RNG consumption per consult is
// deterministic in the seed.
func (e *Engine) linkFilter(from, to topology.NodeID) bool {
	now := e.kernel.Now()
	for _, p := range e.cfg.Partitions {
		if now >= p.Start && now < p.End &&
			p.Cuts(e.field.Position(from), e.field.Position(to)) {
			return false
		}
	}
	l := &e.cfg.Loss
	rng := e.kernel.Rand()
	if l.Drop > 0 && rng.Float64() < l.Drop {
		return false
	}
	if e.asym[link{from, to}] && rng.Float64() < l.AsymmetryDrop {
		return false
	}
	if l.Burst {
		lk := link{from, to}
		s := e.gilbert[lk]
		if s == nil {
			s = &geState{}
			e.gilbert[lk] = s
		}
		drop := burstDropGood
		if s.bad {
			drop = burstDropBad
		}
		lost := rng.Float64() < drop
		if s.bad {
			if rng.Float64() < burstBadToGood {
				s.bad = false
			}
		} else if rng.Float64() < burstGoodToBad {
			s.bad = true
		}
		if lost {
			return false
		}
	}
	return true
}

// TopologyFault stamps one topology-driven fault event — a mobility epoch
// that changed the adjacency, or a churn departure — on the recovery tracker,
// so time-to-repair and delivery-dip metrics cover dynamics the engine does
// not inject itself. Safe to call any time between Bind and Finish.
func (e *Engine) TopologyFault() {
	e.topoFaults++
	e.recovery.Fault(e.kernel.Now())
	if e.checker != nil {
		e.checker.TopologyChanged()
	}
}

// scheduleCrash arms the next crash fault with an exponential inter-arrival.
func (e *Engine) scheduleCrash() {
	d := time.Duration(e.kernel.Rand().ExpFloat64() * float64(e.cfg.Amnesia.MeanInterval))
	e.kernel.Schedule(d, e.crash)
}

// crash fails a uniform live unprotected node, wipes its soft state, and
// reboots it after the configured downtime. A node already off (wave-failed
// or dead) is never picked, so a crash always represents a fresh fault.
func (e *Engine) crash() {
	defer e.scheduleCrash()
	var candidates []topology.NodeID
	for i := 0; i < e.field.Len(); i++ {
		id := topology.NodeID(i)
		if !e.protect[id] && e.net.On(id) {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return
	}
	id := candidates[e.kernel.Rand().Intn(len(candidates))]
	e.crashes++
	e.sched.Fail(id)
	if e.wiper != nil {
		e.wiper.Amnesia(id)
	}
	if e.checker != nil {
		e.checker.NodeRebooted(id)
	}
	e.recovery.Fault(e.kernel.Now())
	e.kernel.Schedule(e.cfg.Amnesia.Downtime, func() {
		e.sched.Revive(id)
	})
}

// Report is the chaos layer's end-of-run summary.
type Report struct {
	// Violations holds the first recorded invariant violations (capped at
	// maxViolations); ViolationCount is the uncapped total. Both are zero
	// when CheckInvariants is off.
	Violations     []Violation
	ViolationCount int
	// Recovery summarizes per-fault repair behavior.
	Recovery *metrics.Recovery
	// Crashes counts injected amnesia faults; LinkLoss counts receptions
	// suppressed by the loss models and partitions.
	Crashes  int
	LinkLoss int
	// TopologyFaults counts fault events stamped via TopologyFault (mobility
	// adjacency changes and churn departures).
	TopologyFaults int
}

// Finish reduces the run's observations over the measurement window
// [from, to). Call once, after the kernel run completes.
func (e *Engine) Finish(from, to time.Duration) *Report {
	r := &Report{
		Crashes:        e.crashes,
		TopologyFaults: e.topoFaults,
		LinkLoss:       e.net.Stats().LinkLoss,
		Recovery:       e.recovery.Finalize(from, to),
	}
	if e.checker != nil {
		r.Violations = e.checker.Violations()
		r.ViolationCount = e.checker.ViolationCount()
	}
	return r
}
