package diffusion

import (
	"fmt"
	"time"

	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/setcover"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Observer receives workload-level events for metric collection. Methods
// are called synchronously from the simulation loop.
type Observer interface {
	// Generated reports a new distinct event produced at a source.
	Generated(src topology.NodeID, item msg.Item)
	// Delivered reports the first arrival of a distinct event at a sink.
	Delivered(sink topology.NodeID, item msg.Item, delay time.Duration)
}

// Roles assigns sinks and sources. A node may not be both.
type Roles struct {
	Sinks   []topology.NodeID
	Sources []topology.NodeID
}

// Validate reports the first problem with the role assignment, if any.
func (r Roles) Validate(n int) error {
	if len(r.Sinks) == 0 || len(r.Sources) == 0 {
		return fmt.Errorf("diffusion: need at least one sink and one source")
	}
	seen := make(map[topology.NodeID]string)
	for _, s := range r.Sinks {
		if s < 0 || int(s) >= n {
			return fmt.Errorf("diffusion: sink %d out of range", s)
		}
		if seen[s] != "" {
			return fmt.Errorf("diffusion: node %d assigned twice", s)
		}
		seen[s] = "sink"
	}
	for _, s := range r.Sources {
		if s < 0 || int(s) >= n {
			return fmt.Errorf("diffusion: source %d out of range", s)
		}
		if seen[s] != "" {
			return fmt.Errorf("diffusion: node %d is both %s and source", s, seen[s])
		}
		seen[s] = "source"
	}
	return nil
}

// scratch is the runtime's shared per-call workspace. The kernel is
// single-threaded and the MAC delivers through scheduled events (no
// synchronous cross-node reentry), so one instance serves every node: a
// buffer's contents only need to survive the single protocol action that
// filled it. The exclude map is lazily created and cleared in place; slices
// and solvers grow to the high-water mark and stay.
type scratch struct {
	sources  []topology.NodeID        // activeSources results
	grads    []topology.NodeID        // dataGradients results
	healthy  []topology.NodeID        // sendDataHealing quality filter
	lqDrop   []topology.NodeID        // repairEntry link-quality exclusions
	exclude  map[topology.NodeID]bool // reinforceEntry merged exclusions
	universe []msg.ItemKey            // flush payload keys: dedup and set-cover universe
	keys     []msg.ItemKey            // flush set-cover family backing
	family   []setcover.Subset[msg.ItemKey]
	cover    setcover.Solver[msg.ItemKey] // flush set cover
	trunc    TruncateWorkspace            // handed to Strategy.Truncate
}

// Runtime wires a diffusion instantiation over every node of a field and
// drives its periodic behavior on the simulation kernel.
type Runtime struct {
	kernel   *sim.Kernel
	net      *mac.Network
	field    *topology.Field
	params   Params
	strategy Strategy
	roles    Roles
	observer Observer
	// nodes is a struct-of-arrays slab: one contiguous value slice sized to
	// the field and never grown, so interior pointers (&rt.nodes[i] held by
	// pooled nodeTimers, receiver closures, and Node()) stay valid for the
	// runtime's lifetime without a pointer-chase per node.
	nodes   []node
	started bool
	sent    [msg.KindRepairProbe + 1]int // by kind; msg.Validate bounds the index
	tracer  Tracer

	// count holds the protocol counters; cascades counts each exploratory
	// entry's reinforcement sends, which Counters folds into CascadeLen.
	count    Counters
	cascades map[cascadeKey]int

	timerFree *nodeTimer // recycled nodeTimer records
	sc        scratch

	// repair holds the self-healing layer's action counters; all zero when
	// Params.Repair.Enabled is false.
	repair RepairStats
}

// Tracer receives structured protocol events; trace.Recorder implements it.
type Tracer interface {
	Record(e trace.Event)
}

// SetTracer installs an optional protocol tracer. Call before Start.
func (rt *Runtime) SetTracer(t Tracer) { rt.tracer = t }

// traceMsg records a send or receive if a tracer is installed.
func (rt *Runtime) traceMsg(op trace.Op, node, peer topology.NodeID, m msg.Message) {
	if rt.tracer == nil {
		return
	}
	// Freshness for received data, read from the duplicate cache before the
	// data path updates it — the same test onData is about to make.
	fresh := 0
	if op == trace.OpReceive && m.Kind == msg.KindData {
		if st := rt.nodes[node].interests.get(m.Interest); st != nil {
			for _, it := range m.Items {
				if _, dup := st.dataCache[it.Key()]; !dup {
					fresh++
				}
			}
		} else {
			fresh = len(m.Items)
		}
	}
	rt.tracer.Record(trace.Event{
		At:       rt.kernel.Now(),
		Op:       op,
		Node:     node,
		Peer:     peer,
		Kind:     m.Kind,
		Interest: m.Interest,
		ID:       m.ID,
		Origin:   m.Origin,
		Items:    len(m.Items),
		E:        m.E,
		C:        m.C,
		W:        m.W,
		Fresh:    fresh,
	})
}

// traceDeliver records an OpDeliver event for a distinct event's first sink
// arrival, carrying the item's lineage (hops, merge fan-in, latency).
func (rt *Runtime) traceDeliver(sink topology.NodeID, it msg.Item, delay time.Duration) {
	if rt.tracer == nil {
		return
	}
	rt.tracer.Record(trace.Event{
		At:     rt.kernel.Now(),
		Op:     trace.OpDeliver,
		Node:   sink,
		Origin: it.Source,
		Items:  1,
		Hops:   int(it.Hops),
		FanIn:  int(it.FanIn),
		Delay:  delay,
	})
}

// Sent returns how many messages of each kind the protocol handed to the
// MAC (one count per unicast copy or broadcast), holding exactly the kinds
// sent at least once.
func (rt *Runtime) Sent() map[msg.Kind]int {
	out := make(map[msg.Kind]int)
	for k, v := range rt.sent {
		if v > 0 {
			out[msg.Kind(k)] = v
		}
	}
	return out
}

// New constructs the runtime. Call Start before running the kernel.
func New(kernel *sim.Kernel, net *mac.Network, field *topology.Field, params Params,
	strategy Strategy, roles Roles, observer Observer) (*Runtime, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if strategy == nil {
		return nil, fmt.Errorf("diffusion: nil strategy")
	}
	if err := roles.Validate(field.Len()); err != nil {
		return nil, err
	}
	rt := &Runtime{
		kernel:   kernel,
		net:      net,
		field:    field,
		params:   params,
		strategy: strategy,
		roles:    roles,
		observer: observer,
		nodes:    make([]node, field.Len()),
		cascades: make(map[cascadeKey]int),
	}
	for i := range rt.nodes {
		initNode(&rt.nodes[i], rt, topology.NodeID(i))
	}
	for si, s := range roles.Sinks {
		rt.nodes[s].sinkInterest = msg.InterestID(si)
		rt.nodes[s].isSink = true
	}
	for _, s := range roles.Sources {
		rt.nodes[s].isSource = true
	}
	for i := range rt.nodes {
		id := topology.NodeID(i)
		n := &rt.nodes[i]
		net.SetReceiver(id, n.receive)
	}
	return rt, nil
}

// Node returns the protocol state handle for tests and inspection tools.
func (rt *Runtime) Node(id topology.NodeID) *node { return &rt.nodes[id] }

// DataGradients returns node id's live downstream data-gradient neighbors
// for an interest, in ascending order — the tree structure, for inspection.
func (rt *Runtime) DataGradients(id topology.NodeID, iid msg.InterestID) []topology.NodeID {
	n := &rt.nodes[id]
	st := n.interests.get(iid)
	if st == nil {
		return nil
	}
	// The internal call returns the shared scratch buffer; hand callers a
	// copy they can keep.
	g := n.dataGradients(st)
	if len(g) == 0 {
		return nil
	}
	return append([]topology.NodeID(nil), g...)
}

// Amnesia wipes node id's diffusion soft state, modeling a crash-and-reboot
// that loses RAM. Gradients, exploratory entry caches, duplicate-suppression
// caches, aggregation buffers, and source activation all vanish, and timers
// armed before the crash are disarmed, so the node must re-learn the tree
// from subsequent floods. Identifier counters (item sequence number, a
// sink's interest round) survive, as a real node keeps them in flash to
// avoid reuse. The chaos layer calls this at crash time.
func (rt *Runtime) Amnesia(id topology.NodeID) { rt.nodes[id].amnesia() }

// KnowsInterest reports whether node id has any state for the interest.
func (rt *Runtime) KnowsInterest(id topology.NodeID, iid msg.InterestID) bool {
	return rt.nodes[id].interests.get(iid) != nil
}

// BestEntryCost returns the lowest exploratory energy cost E cached at node
// id across the interest's current entries (excluding entries the node
// itself originated), for inspection and tests.
func (rt *Runtime) BestEntryCost(id topology.NodeID, iid msg.InterestID) (int, bool) {
	st := rt.nodes[id].interests.get(iid)
	if st == nil {
		return 0, false
	}
	best, found := 0, false
	for _, ee := range st.entries.es {
		e := ee.val
		if !e.HasE || e.Origin == id {
			continue
		}
		if !found || e.BestE < best {
			best, found = e.BestE, true
		}
	}
	return best, found
}

// Start schedules the initial periodic activity: interest floods and the
// repair pass at sinks, and cache pruning at every node, whose truncation
// and repair passes arm on demand. Sources activate themselves when the
// first interest reaches them.
func (rt *Runtime) Start() {
	if rt.started {
		panic("diffusion: Start called twice")
	}
	rt.started = true
	if rt.params.Repair.Enabled {
		// The self-healing layer needs the fate of every unicast attempt
		// cycle; disabled runs install nothing so the MAC path is untouched.
		rt.net.SetUnicastOutcomeHook(rt.unicastOutcome)
	}
	for _, s := range rt.roles.Sinks {
		rt.nodes[s].startSink()
	}
	for i := range rt.nodes {
		rt.nodes[i].startHousekeeping()
	}
}

// jitter returns a uniform delay in [0, max).
func (rt *Runtime) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rt.kernel.Rand().Int63n(int64(max)))
}

// newMsgID draws a fresh random message id.
func (rt *Runtime) newMsgID() msg.MsgID {
	return msg.MsgID(rt.kernel.Rand().Uint64())
}

// Snapshot captures every node's per-interest protocol state at the current
// virtual time, in (node, interest) order: gradient tables, tree membership,
// and cache sizes. It is read-only and consumes no randomness, so periodic
// snapshotting leaves protocol outcomes untouched.
func (rt *Runtime) Snapshot() []trace.SnapshotRecord {
	var out []trace.SnapshotRecord
	now := rt.kernel.Now()
	for ni := range rt.nodes {
		n := &rt.nodes[ni]
		for _, ie := range n.interests.es {
			iid, st := ie.key, ie.val
			rec := trace.SnapshotRecord{
				At:       now,
				Node:     n.id,
				Interest: iid,
				On:       n.on(),
				Sink:     n.isSink && iid == n.sinkInterest,
				Source:   n.isSource && st.activated,
				DupCache: len(st.dataCache),
				Entries:  st.entries.size(),
			}
			rec.OnTree = rec.Sink || n.hasDataGradient(st)
			for _, ge := range st.grads.es {
				if ge.val.expires <= now {
					continue
				}
				rec.Gradients = append(rec.Gradients, trace.SnapshotGradient{
					Nbr: ge.key, Data: ge.val.kind == gradData, Expires: ge.val.expires,
				})
			}
			out = append(out, rec)
		}
	}
	return out
}
