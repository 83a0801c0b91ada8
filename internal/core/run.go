package core

import (
	"fmt"
	"time"

	"repro/internal/msg"

	"repro/internal/chaos"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/idealized"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/opportunistic"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scheme selects the aggregation scheme under test.
type Scheme int

// Schemes.
const (
	// SchemeGreedy is the paper's contribution (this package's Strategy).
	SchemeGreedy Scheme = iota + 1
	// SchemeOpportunistic is the prior diffusion baseline.
	SchemeOpportunistic
	// SchemeGreedyEventCover is the §4.3 ablation: greedy aggregation with
	// the conservative event-based truncation rule instead of the source
	// transform.
	SchemeGreedyEventCover
	// SchemeFlooding is the classic flooding reference: every node
	// rebroadcasts every unseen event (package idealized).
	SchemeFlooding
	// SchemeOmniscient is the omniscient-multicast reference: precomputed
	// per-source shortest-path trees, zero control traffic (package
	// idealized).
	SchemeOmniscient
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeGreedy:
		return "greedy"
	case SchemeOpportunistic:
		return "opportunistic"
	case SchemeGreedyEventCover:
		return "greedy-eventcover"
	case SchemeFlooding:
		return "flooding"
	case SchemeOmniscient:
		return "omniscient"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Idealized reports whether the scheme is one of the non-diffusion
// reference schemes.
func (s Scheme) Idealized() bool {
	return s == SchemeFlooding || s == SchemeOmniscient
}

// ParseScheme converts a scheme name from the CLI into a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range []Scheme{SchemeGreedy, SchemeOpportunistic, SchemeGreedyEventCover,
		SchemeFlooding, SchemeOmniscient} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q", name)
}

// Strategy returns the diffusion strategy implementing the scheme.
func (s Scheme) Strategy() (diffusion.Strategy, error) {
	switch s {
	case SchemeGreedy:
		return Strategy{}, nil
	case SchemeOpportunistic:
		return opportunistic.Strategy{}, nil
	case SchemeGreedyEventCover:
		return Strategy{TruncateOnEvents: true}, nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %d", int(s))
	}
}

// Config fully describes one simulation run. Zero-valued fields are not
// defaulted implicitly; start from DefaultConfig.
type Config struct {
	// Seed determines the field placement, workload draw, and every random
	// choice in the run. One seed corresponds to one of the paper's "ten
	// different generated fields".
	Seed int64

	// Scheme is the aggregation scheme under test.
	Scheme Scheme

	// Nodes is the field size (paper: 50..350). FieldSide sets the
	// deployment square (paper: 200 m); radios reach 40 m (RadioRange).
	Nodes     int
	FieldSide float64

	// Workload places sources and sinks.
	Workload workload.Config

	// Failures, when non-nil, enables §5.3 node-failure dynamics. Sources
	// and sinks never fail (nor, with Chaos, crash), so the metrics measure
	// protocol robustness rather than workload death.
	Failures *failure.Config

	// Chaos, when non-nil, enables the composable fault-injection layer:
	// link loss, crashes with amnesia, partitions, the invariant checker,
	// and recovery metrics. Beside Failures, every wave that fails a node is
	// also a fault event for the recovery metrics.
	Chaos *chaos.Config

	// Mobility, when enabled, makes the topology dynamic: every node but the
	// sinks moves under the configured model on a kernel-driven epoch
	// timer, and every layer consulting the field (MAC range checks,
	// neighbor lists, the chaos cycle audit) sees live positions. The zero
	// value keeps the historical static field bit for bit.
	Mobility topology.MobilityConfig

	// Churn, when enabled, adds population churn on top of the failure
	// schedule: cold-joining nodes that boot with empty soft state and
	// permanent departures. The zero value is inert.
	Churn failure.ChurnConfig

	// Duration is the simulated time; events generated in the final
	// DrainTail are not counted (they would have no time to arrive).
	Duration  time.Duration
	DrainTail time.Duration

	// Diffusion and MAC configure the substrates; every radio draws the
	// paper's powers, which package energy holds as constants.
	// Diffusion.Agg is the aggregation function (paper: perfect; §5.4 uses
	// linear). The idealized schemes have no repair layer, so Validate
	// rejects Diffusion.Repair.Enabled on them.
	Diffusion diffusion.Params
	MAC       mac.Params

	// Tracer, when non-nil, receives every protocol send and receive (see
	// package trace). Tracing a full run is expensive; filter the recorder.
	// A tracer that also implements trace.SnapshotSink receives periodic
	// protocol-state snapshots when Telemetry.SnapshotEvery is set. The
	// idealized schemes emit no trace events, so Validate rejects a Tracer
	// on them.
	Tracer diffusion.Tracer

	// FlightPath, when non-empty, arms the flight recorder: a fixed-size
	// ring of recent trace events and protocol-state snapshots kept alongside
	// any configured Tracer, dumped as NDJSON to FlightPath when the chaos
	// invariant checker records its first violation or the event loop panics.
	// Memory stays bounded by trace.FlightCapacity records and nothing is
	// written on a clean run. Only diffusion schemes emit trace events, so the
	// recorder is inert under the idealized references (the panic backstop
	// still fires).
	FlightPath string

	// Telemetry, when non-nil, renders the counters the kernel, MAC and
	// protocol layers keep into a snapshot in Output.Telemetry. The zero
	// obs.Config value is valid (no protocol-state snapshots); a positive
	// SnapshotEvery needs a diffusion scheme and a snapshot sink (a Tracer
	// implementing trace.SnapshotSink, or FlightPath). Telemetry never
	// alters protocol outcomes. See package obs.
	Telemetry *obs.Config

	// BatteryJ, when positive, gives every node a battery budget in joules:
	// a node whose dissipated energy (communication plus an always-on idle
	// draw) exceeds it is permanently killed — the paper's network-lifetime
	// reading of the energy metric, §3's traffic-concentration concern made
	// operational. Protected endpoints never die.
	BatteryJ float64
}

// RadioRange is every node's unit-disk radio range in meters (paper: 40 m).
const RadioRange float64 = 40

// DefaultConfig returns the paper's §5.1 methodology: a 200 m field, 40 m
// radios, five corner sources, one corner sink, perfect aggregation, no
// failures.
func DefaultConfig() Config {
	return Config{
		Scheme:    SchemeGreedy,
		Nodes:     150,
		FieldSide: 200,
		Workload: workload.Config{
			Sources:   5,
			Sinks:     1,
			Placement: workload.PlaceCorner,
		},
		Duration:  160 * time.Second,
		DrainTail: 3 * time.Second,
		Diffusion: diffusion.DefaultParams(),
	}
}

// Validate reports the first problem with the configuration, if any.
func (c Config) Validate() error {
	if c.Scheme.Idealized() {
		// The idealized references install neither the tracer nor the
		// repair layer; refuse both rather than run silently without them.
		switch {
		case c.Tracer != nil:
			return fmt.Errorf("core: scheme %v does not support tracing", c.Scheme)
		case c.Diffusion.Repair.Enabled:
			return fmt.Errorf("core: scheme %v does not support the repair layer", c.Scheme)
		}
	} else if _, err := c.Scheme.Strategy(); err != nil {
		return err
	}
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("core: need at least 2 nodes, got %d", c.Nodes)
	case c.FieldSide <= 0:
		return fmt.Errorf("core: non-positive field side %v", c.FieldSide)
	case c.Duration <= 0 || c.DrainTail < 0 || c.DrainTail >= c.Duration:
		return fmt.Errorf("core: bad duration %v / drain %v", c.Duration, c.DrainTail)
	case c.BatteryJ < 0:
		return fmt.Errorf("core: negative battery %v", c.BatteryJ)
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Failures != nil {
		if err := c.Failures.Validate(); err != nil {
			return err
		}
	}
	if c.Chaos != nil {
		if err := c.Chaos.Validate(); err != nil {
			return err
		}
	}
	if c.Telemetry != nil {
		if err := c.Telemetry.Validate(); err != nil {
			return err
		}
		if c.Telemetry.SnapshotEvery > 0 && !c.takesSnapshots() {
			return fmt.Errorf("core: a snapshot interval needs a diffusion scheme with a tracer " +
				"that takes snapshots (trace.SnapshotSink) or a flight recorder")
		}
	}
	if err := c.Mobility.Validate(); err != nil {
		return err
	}
	if err := c.Churn.Validate(); err != nil {
		return err
	}
	return c.Diffusion.Validate()
}

// takesSnapshots reports whether the run has somewhere for protocol-state
// snapshots to land: a diffusion scheme whose tracer is a
// trace.SnapshotSink or that arms the flight recorder.
func (c Config) takesSnapshots() bool {
	_, sink := c.Tracer.(trace.SnapshotSink)
	return !c.Scheme.Idealized() && (sink || c.FlightPath != "")
}

// Output bundles a run's metrics with substrate diagnostics.
type Output struct {
	Metrics metrics.Result
	// MAC is the link-layer counter snapshot at the end of the run.
	MAC mac.Stats
	// Assignment records which nodes served as sinks and sources.
	Assignment workload.Assignment
	// Density is the field's mean radio degree.
	Density float64
	// Sent counts protocol messages handed to the MAC, by kind.
	Sent map[msg.Kind]int
	// Positions are the node locations of the generated field.
	Positions []geom.Point
	// Lifetime reports battery-depletion outcomes when Config.BatteryJ is
	// set: when the first node died and how many died in total.
	Lifetime Lifetime
	// Trees holds, per interest, the data-gradient links (from, to) alive
	// at the end of the run — the aggregation tree each scheme built.
	Trees map[msg.InterestID][][2]topology.NodeID
	// Chaos is the fault-injection report (invariant violations, recovery
	// metrics, injection counters) when Config.Chaos is set; nil otherwise.
	Chaos *chaos.Report
	// Mobility summarizes movement and churn when Config.Mobility or
	// Config.Churn is enabled; nil otherwise.
	Mobility *MobilityReport
	// Repair is the self-healing layer's counter snapshot when
	// Config.Diffusion.Repair.Enabled is set on a diffusion scheme; nil
	// otherwise.
	Repair *diffusion.RepairStats
	// Flight describes the flight recorder's disposition when
	// Config.FlightPath is set; nil otherwise.
	Flight *FlightReport
	// Kernel reports event-loop throughput; always filled.
	Kernel KernelStats
	// Telemetry is the run's counter snapshot when Config.Telemetry is set;
	// nil otherwise.
	Telemetry []obs.Metric
}

// MobilityReport summarizes a run's topology dynamics.
type MobilityReport struct {
	// Epochs is how many movement epochs ran; LinkChanges the total directed
	// adjacency changes they caused.
	Epochs      int
	LinkChanges int
	// MeanSpeed and MaxSpeed are per-node average speeds over the run in
	// m/s; TotalDistance is the summed path length in meters.
	MeanSpeed     float64
	MaxSpeed      float64
	TotalDistance float64
	// SpeedBuckets correlates per-node communication energy with node speed
	// (metrics.DefaultSpeedBounds).
	SpeedBuckets []metrics.SpeedBucket
	// Joins and Departures count churn events.
	Joins      int
	Departures int
}

// FlightReport summarizes the flight recorder at the end of a run.
type FlightReport struct {
	// Path is the configured dump destination.
	Path string
	// Dumped reports whether a dump was written (an invariant violation
	// fired); Err is the dump error, if any.
	Dumped bool
	Err    error
	// Records is the ring occupancy at the end of the run; Total counts
	// every record ever pushed, including overwritten ones.
	Records int
	Total   uint64
}

// Lifetime summarizes battery-depletion outcomes of a run.
type Lifetime struct {
	// FirstDeath is when the first node depleted its battery (0 = none).
	FirstDeath time.Duration
	// Deaths is the number of depleted nodes at the end of the run.
	Deaths int
}

// Run executes one simulation and returns its metrics. Runs are
// deterministic in (Config, Seed).
func Run(cfg Config) (Output, error) {
	if err := cfg.Validate(); err != nil {
		return Output{}, err
	}
	st, err := buildRun(cfg)
	if err != nil {
		return Output{}, err
	}
	if st.flight != nil {
		runGuarded(st.kernel, cfg.Duration, st.flight, cfg.FlightPath)
	} else {
		st.kernel.Run(cfg.Duration)
	}
	return st.finish()
}

// runState is one serial run's assembled substrate: everything buildRun
// constructs before the event loop starts and finish reads after it.
type runState struct {
	cfg       Config
	wallStart time.Time
	kernel    *sim.Kernel
	field     *topology.Field
	assign    workload.Assignment
	network   *mac.Network
	collector *metrics.Collector
	flight    *trace.FlightRecorder
	engine    *chaos.Engine
	rt        *diffusion.Runtime
	flood     *idealized.Flooding
	mcast     *idealized.Multicast
	sched     *failure.Schedule
	churn     *failure.Churn
	mover     *topology.Mover
	life      Lifetime
	rxDrops   rxDrops
}

// mobilityEpoch is the movement epoch timer as a runner: it advances
// every mobile node, stamps a topology fault when the adjacency actually
// changed, and re-arms itself.
type mobilityEpoch struct {
	kernel *sim.Kernel
	mover  *topology.Mover
	engine *chaos.Engine
	every  time.Duration
}

// Run implements sim.Runner.
func (e *mobilityEpoch) Run() {
	changed := e.mover.Advance(e.kernel.Now(), e.kernel.Rand())
	if changed > 0 && e.engine != nil {
		e.engine.TopologyFault()
	}
	e.kernel.ScheduleRunner(e.every, e)
}

// batteryWatch is the once-per-virtual-second battery audit as a runner:
// it permanently kills nodes whose dissipated energy (communication
// plus the always-on idle draw) exceeds the budget.
type batteryWatch struct {
	kernel    *sim.Kernel
	network   *mac.Network
	sched     *failure.Schedule
	protected map[topology.NodeID]bool
	nodes     int
	budgetJ   float64
	life      *Lifetime
}

// Run implements sim.Runner.
func (b *batteryWatch) Run() {
	idleSpent := energy.IdlePower * b.kernel.Now().Seconds()
	for i := 0; i < b.nodes; i++ {
		id := topology.NodeID(i)
		if b.protected[id] || !b.network.On(id) {
			continue
		}
		if b.network.Meter(id).CommJoules()+idleSpent >= b.budgetJ {
			b.sched.Kill(id)
			b.life.Deaths++
			if b.life.FirstDeath == 0 {
				b.life.FirstDeath = b.kernel.Now()
			}
		}
	}
	b.kernel.ScheduleRunner(time.Second, b)
}

// snapshotTick is the periodic protocol-state dump as a runner.
// Snapshot events consume no randomness and only shift kernel sequence
// numbers, so protocol outcomes are unchanged by snapshotting.
type snapshotTick struct {
	kernel *sim.Kernel
	rt     *diffusion.Runtime
	sink   trace.SnapshotSink
	every  time.Duration
}

// Run implements sim.Runner.
func (t *snapshotTick) Run() {
	for _, rec := range t.rt.Snapshot() {
		t.sink.RecordSnapshot(rec)
	}
	t.kernel.ScheduleRunner(t.every, t)
}

// maxPlacementTries bounds the fields generated for one run when a random
// field leaves the workload disconnected (sparse fields at 50 nodes often
// do).
const maxPlacementTries = 50

// buildRun deterministically assembles a run from its configuration: field
// generation, workload placement, the MAC, the scheme runtime, and the
// auxiliary subsystems, with their initial events armed.
func buildRun(cfg Config) (*runState, error) {
	st := &runState{cfg: cfg, wallStart: time.Now()}
	kernel := sim.NewKernel(cfg.Seed)
	area := geom.Square(0, 0, cfg.FieldSide)

	// Generate fields until the drawn workload is connected, like the
	// paper's field-generation procedure must have (a disconnected source
	// cannot deliver anything regardless of protocol).
	var (
		field  *topology.Field
		assign workload.Assignment
		err    error
	)
	for try := 0; ; try++ {
		field, err = topology.Generate(topology.Config{
			Area: area, Nodes: cfg.Nodes, Range: RadioRange,
		}, kernel.Rand())
		if err != nil {
			return nil, err
		}
		assign, err = workload.Place(field, cfg.Workload, kernel.Rand())
		if err == nil {
			break
		}
		if try+1 >= maxPlacementTries {
			return nil, fmt.Errorf("core: no usable placement after %d tries: %w",
				maxPlacementTries, err)
		}
	}

	network := mac.New(kernel, field, cfg.MAC)

	collector := metrics.NewCollector(0, cfg.Duration-cfg.DrainTail, kernel.Now)

	// The flight recorder rides next to the user's tracer: always recording
	// into its ring, written out only on a violation or a panic.
	var flight *trace.FlightRecorder
	userTracer := cfg.Tracer
	if cfg.FlightPath != "" {
		flight = trace.NewFlightRecorder()
		userTracer = tee(userTracer, flight)
	}

	// The chaos engine interposes on the observer and tracer; with no Chaos
	// config the run uses the bare collector.
	var engine *chaos.Engine
	observer := diffusion.Observer(collector)
	if cfg.Chaos != nil {
		engine, err = chaos.New(kernel, network, field, *cfg.Chaos)
		if err != nil {
			return nil, err
		}
		observer = engine.WrapObserver(collector)
		if flight != nil {
			if ck := engine.Checker(); ck != nil {
				fp := cfg.FlightPath
				ck.SetOnViolation(func(chaos.Violation) { _ = flight.DumpFile(fp) })
			}
		}
	}

	// The runtime under test: a diffusion instantiation or one of the
	// idealized reference schemes.
	var (
		rt       *diffusion.Runtime
		flood    *idealized.Flooding
		mcast    *idealized.Multicast
		startRun func()
	)
	switch cfg.Scheme {
	case SchemeFlooding:
		flood, err = idealized.NewFlooding(kernel, network, field,
			diffusion.Roles{Sinks: assign.Sinks, Sources: assign.Sources}, observer)
		if err != nil {
			return nil, err
		}
		startRun = flood.Start
	case SchemeOmniscient:
		mcast, err = idealized.NewMulticast(kernel, network, field,
			diffusion.Roles{Sinks: assign.Sinks, Sources: assign.Sources}, observer)
		if err != nil {
			return nil, err
		}
		startRun = mcast.Start
	default:
		strategy, serr := cfg.Scheme.Strategy()
		if serr != nil {
			return nil, serr
		}
		rt, err = diffusion.New(kernel, network, field, cfg.Diffusion, strategy,
			diffusion.Roles{Sinks: assign.Sinks, Sources: assign.Sources}, observer)
		if err != nil {
			return nil, err
		}
		tracer := userTracer
		if engine != nil {
			if ck := engine.Checker(); ck != nil {
				tracer = tee(tracer, ck)
			}
		}
		if tracer != nil {
			rt.SetTracer(tracer)
		}
		// Drops become OpDrop trace events for the user's tracer (and flight
		// recorder) only; the chaos invariant checker keys on sends and
		// receives and must not see them.
		if userTracer != nil || cfg.Telemetry != nil {
			network.SetDropHook(dropHook(kernel, userTracer, &st.rxDrops))
		}
		if cfg.Telemetry != nil && cfg.Telemetry.SnapshotEvery > 0 {
			// Validate admitted the interval only with a snapshot sink
			// (takesSnapshots), which userTracer is.
			every := cfg.Telemetry.SnapshotEvery
			kernel.ScheduleRunner(every, &snapshotTick{kernel: kernel, rt: rt,
				sink: userTracer.(trace.SnapshotSink), every: every})
		}
		startRun = rt.Start
	}

	fcfg := failure.Config{Fraction: 0, Wave: time.Second}
	if cfg.Failures != nil {
		fcfg = *cfg.Failures
	}
	fcfg.Protect = append(append([]topology.NodeID(nil), assign.Sinks...), assign.Sources...)
	sched, err := failure.New(kernel, network, field.Len(), fcfg)
	if err != nil {
		return nil, err
	}

	if engine != nil {
		var (
			trees chaos.TreeSource
			wiper chaos.Wiper
		)
		if rt != nil {
			trees, wiper = rt, rt
		}
		engine.Bind(chaos.Binding{
			Sched:     sched,
			Protect:   fcfg.Protect,
			Trees:     trees,
			Wiper:     wiper,
			Interests: len(assign.Sinks),
		})
	}

	// Mobility: a kernel-driven epoch timer advances every mobile node and,
	// when the adjacency actually changed, stamps a topology fault so the
	// recovery metrics time the protocol's reaction to movement.
	var mover *topology.Mover
	if cfg.Mobility.Enabled() {
		mover, err = topology.NewMover(field, cfg.Mobility, assign.Sinks)
		if err != nil {
			return nil, err
		}
		kernel.ScheduleRunner(cfg.Mobility.Epoch, &mobilityEpoch{kernel: kernel, mover: mover,
			engine: engine, every: cfg.Mobility.Epoch})
	}

	// Churn: joiners cold-boot with wiped soft state (and a reset invariant
	// checker — the node legitimately knows nothing); departures are
	// topology faults for the recovery metrics.
	var churn *failure.Churn
	if cfg.Churn.Enabled() {
		churn, err = failure.NewChurn(kernel, sched, cfg.Churn)
		if err != nil {
			return nil, err
		}
		churn.SetOnJoin(func(id topology.NodeID) {
			if rt != nil {
				rt.Amnesia(id)
			}
			if engine != nil {
				if ck := engine.Checker(); ck != nil {
					ck.NodeRebooted(id)
				}
			}
		})
		if engine != nil {
			churn.SetOnLeave(func(topology.NodeID) { engine.TopologyFault() })
		}
	}

	if cfg.BatteryJ > 0 {
		protected := make(map[topology.NodeID]bool, len(fcfg.Protect))
		for _, id := range fcfg.Protect {
			protected[id] = true
		}
		kernel.ScheduleRunner(time.Second, &batteryWatch{kernel: kernel, network: network,
			sched: sched, protected: protected, nodes: field.Len(),
			budgetJ: cfg.BatteryJ, life: &st.life})
	}

	startRun()
	sched.Start()
	if churn != nil {
		churn.Start()
	}
	if engine != nil {
		engine.Start()
	}

	st.kernel, st.field, st.assign = kernel, field, assign
	st.network, st.collector, st.flight, st.engine = network, collector, flight, engine
	st.rt, st.flood, st.mcast = rt, flood, mcast
	st.sched, st.churn, st.mover = sched, churn, mover
	return st, nil
}

// finish tears the run down and assembles its Output. It runs exactly once,
// after the event loop has reached the horizon.
func (st *runState) finish() (Output, error) {
	cfg, kernel, field := st.cfg, st.kernel, st.field
	network, collector, assign := st.network, st.collector, st.assign
	engine, rt, flood, mcast := st.engine, st.rt, st.flood, st.mcast
	mover, churn, flight := st.mover, st.churn, st.flight
	life, wallStart := st.life, st.wallStart

	st.sched.Finish()

	var report *chaos.Report
	if engine != nil {
		report = engine.Finish(0, cfg.Duration-cfg.DrainTail)
	}

	var totalJ, commJ float64
	perNodeComm := make([]float64, field.Len())
	for i := 0; i < field.Len(); i++ {
		m := network.Meter(topology.NodeID(i))
		totalJ += m.TotalJoules()
		commJ += m.CommJoules()
		perNodeComm[i] = m.CommJoules()
	}

	result, err := collector.Finalize(cfg.Scheme.String(), field.Len(), field.MeanDegree(),
		len(assign.Sinks), totalJ, commJ)
	if err != nil {
		return Output{}, err
	}
	result.Concentration = metrics.NewConcentration(perNodeComm)
	if report != nil {
		result.Recovery = report.Recovery
	}
	positions := make([]geom.Point, field.Len())
	for i := 0; i < field.Len(); i++ {
		positions[i] = field.Position(topology.NodeID(i))
	}
	sent := map[msg.Kind]int{}
	trees := map[msg.InterestID][][2]topology.NodeID{}
	var repair *diffusion.RepairStats
	switch {
	case rt != nil:
		sent = rt.Sent()
		if cfg.Diffusion.Repair.Enabled {
			rs := rt.RepairStats()
			repair = &rs
		}
		for i := 0; i < field.Len(); i++ {
			for si := range assign.Sinks {
				iid := msg.InterestID(si)
				for _, nbr := range rt.DataGradients(topology.NodeID(i), iid) {
					trees[iid] = append(trees[iid], [2]topology.NodeID{topology.NodeID(i), nbr})
				}
			}
		}
	case flood != nil:
		sent[msg.KindData] = flood.Sent()
	case mcast != nil:
		sent[msg.KindData] = mcast.Sent()
	}

	var mobility *MobilityReport
	if mover != nil || churn != nil {
		mobility = &MobilityReport{}
		if mover != nil {
			elapsed := cfg.Duration
			mobility.Epochs = mover.Epochs()
			mobility.LinkChanges = mover.LinkChanges()
			mobility.MeanSpeed = mover.MeanSpeed(elapsed)
			mobility.MaxSpeed = mover.MaxSpeed(elapsed)
			mobility.TotalDistance = mover.TotalDistance()
			mobility.SpeedBuckets = metrics.SpeedProfile(mover.Speeds(elapsed), perNodeComm, nil)
		}
		if churn != nil {
			mobility.Joins = churn.Joins()
			mobility.Departures = churn.Departures()
		}
	}

	kstats := KernelStats{
		Events:         kernel.Processed(),
		QueueHighWater: kernel.QueueHighWater(),
		WallTime:       time.Since(wallStart),
	}
	var telemetry []obs.Metric
	if cfg.Telemetry != nil {
		if telemetry, err = st.telemetry(sent, kstats, repair); err != nil {
			return Output{}, err
		}
	}

	var flightRep *FlightReport
	if flight != nil {
		flightRep = &FlightReport{
			Path:    cfg.FlightPath,
			Dumped:  flight.Dumped(),
			Err:     flight.DumpError(),
			Records: flight.Len(),
			Total:   flight.Total(),
		}
	}

	return Output{
		Metrics:    result,
		MAC:        network.Stats(),
		Assignment: assign,
		Density:    field.MeanDegree(),
		Sent:       sent,
		Positions:  positions,
		Trees:      trees,
		Lifetime:   life,
		Chaos:      report,
		Mobility:   mobility,
		Repair:     repair,
		Flight:     flightRep,
		Kernel:     kstats,
		Telemetry:  telemetry,
	}, nil
}

// tee adds s to the tracer t (a user-supplied recorder, the flight
// recorder, the chaos invariant checker).
func tee(t diffusion.Tracer, s trace.Sink) diffusion.Tracer {
	if t == nil {
		return s
	}
	return trace.MultiSink(t, s)
}

// runGuarded runs the event loop with a panic backstop: if anything inside
// the kernel panics, the flight recorder dumps its ring before the panic
// propagates, so the records leading up to the crash survive for
// post-mortem.
func runGuarded(kernel *sim.Kernel, d time.Duration, flight *trace.FlightRecorder, path string) {
	defer func() {
		if r := recover(); r != nil {
			_ = flight.DumpFile(path)
			panic(r)
		}
	}()
	kernel.Run(d)
}
