// Package idealized implements the two reference schemes the diffusion
// papers' evaluations are traditionally calibrated against (the paper's
// metrics "were used in earlier work to compare diffusion with other
// idealized schemes"):
//
//   - Flooding: every source broadcasts each event and every node
//     rebroadcasts unseen events — the robust upper bound on traffic.
//   - Omniscient multicast: each source sends events down a precomputed
//     shortest-path tree to the sinks, with no discovery, control traffic,
//     or maintenance of any kind — the idealized lower bound. It still
//     pays the real MAC (contention, ACKs, losses), just not the routing.
//
// Both run on the same kernel/MAC/metrics substrates as the diffusion
// schemes, and read the diffusion workload's constants (event period, flood
// jitter, cache TTL), so their numbers are directly comparable.
package idealized

import (
	"fmt"
	"math"
	"time"

	"repro/internal/datacentric"
	"repro/internal/diffusion"
	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topology"
)

// --- flooding ----------------------------------------------------------------

// Flooding is the classic flooding data-dissemination scheme.
type Flooding struct {
	kernel   *sim.Kernel
	net      *mac.Network
	roles    diffusion.Roles
	observer diffusion.Observer

	isSink map[topology.NodeID]bool
	seen   []map[msg.ItemKey]time.Duration
	seqs   map[topology.NodeID]int
	sent   int
}

// NewFlooding constructs the scheme over the field.
func NewFlooding(kernel *sim.Kernel, net *mac.Network, field *topology.Field,
	roles diffusion.Roles, observer diffusion.Observer) (*Flooding, error) {
	if len(roles.Sinks) == 0 || len(roles.Sources) == 0 {
		return nil, fmt.Errorf("idealized: need sinks and sources")
	}
	f := &Flooding{
		kernel:   kernel,
		net:      net,
		roles:    roles,
		observer: observer,
		isSink:   make(map[topology.NodeID]bool, len(roles.Sinks)),
		seen:     make([]map[msg.ItemKey]time.Duration, field.Len()),
		seqs:     make(map[topology.NodeID]int, len(roles.Sources)),
	}
	for _, s := range roles.Sinks {
		f.isSink[s] = true
	}
	for i := range f.seen {
		f.seen[i] = make(map[msg.ItemKey]time.Duration)
	}
	for i := 0; i < field.Len(); i++ {
		id := topology.NodeID(i)
		net.SetReceiver(id, func(from topology.NodeID, fr mac.Frame) { f.receive(id, fr) })
	}
	return f, nil
}

// Sent returns the number of data broadcasts handed to the MAC.
func (f *Flooding) Sent() int { return f.sent }

// Start schedules event generation at every source.
func (f *Flooding) Start() {
	for _, src := range f.roles.Sources {
		src := src
		f.kernel.Schedule(f.jitter(diffusion.DataPeriod), func() { f.generate(src) })
	}
	f.kernel.Schedule(diffusion.DataCacheTTL, f.prune)
}

func (f *Flooding) jitter(max time.Duration) time.Duration {
	return time.Duration(f.kernel.Rand().Int63n(int64(max)))
}

func (f *Flooding) generate(src topology.NodeID) {
	defer f.kernel.Schedule(diffusion.DataPeriod, func() { f.generate(src) })
	if !f.net.On(src) {
		return
	}
	item := msg.Item{Source: src, Seq: f.seqs[src], GenTime: int64(f.kernel.Now())}
	f.seqs[src]++
	if f.observer != nil {
		f.observer.Generated(src, item)
	}
	f.seen[src][item.Key()] = f.kernel.Now()
	f.broadcast(src, item)
}

func (f *Flooding) broadcast(from topology.NodeID, item msg.Item) {
	// item is a private copy: the outgoing payload rides one more
	// transmission, so delivered items carry their path length in Hops.
	if item.Hops < math.MaxUint16 {
		item.Hops++
	}
	m := msg.Message{
		Kind:     msg.KindData,
		Interest: 0,
		Origin:   item.Source,
		Items:    []msg.Item{item},
		W:        1,
		Bytes:    msg.EventBytes,
	}
	f.sent++
	_ = f.net.Broadcast(from, mac.Frame{Bytes: m.Bytes, Payload: m})
}

func (f *Flooding) receive(at topology.NodeID, fr mac.Frame) {
	m, ok := fr.Payload.(msg.Message)
	if !ok || len(m.Items) != 1 {
		return
	}
	item := m.Items[0]
	if _, dup := f.seen[at][item.Key()]; dup {
		return
	}
	f.seen[at][item.Key()] = f.kernel.Now()
	if f.isSink[at] && f.observer != nil {
		f.observer.Delivered(at, item, f.kernel.Now()-time.Duration(item.GenTime))
	}
	// Sinks still rebroadcast: other sinks may sit behind them.
	f.kernel.Schedule(f.jitter(diffusion.FloodJitterMax), func() {
		if f.net.On(at) {
			f.broadcast(at, item)
		}
	})
}

func (f *Flooding) prune() {
	defer f.kernel.Schedule(diffusion.DataCacheTTL/2, f.prune)
	cutoff := f.kernel.Now() - diffusion.DataCacheTTL
	for _, m := range f.seen {
		for k, at := range m {
			if at < cutoff {
				delete(m, k)
			}
		}
	}
}

// --- omniscient multicast ------------------------------------------------------

// Multicast is the omniscient-multicast reference: per-source shortest-path
// trees to all sinks, known a priori, with zero control traffic.
type Multicast struct {
	kernel   *sim.Kernel
	net      *mac.Network
	roles    diffusion.Roles
	observer diffusion.Observer

	// children[src][node] lists the forwarding fan-out at node for src's
	// tree; sinkSet marks delivery points.
	children map[topology.NodeID]map[topology.NodeID][]topology.NodeID
	isSink   map[topology.NodeID]bool
	seqs     map[topology.NodeID]int
	sent     int
}

// NewMulticast precomputes each source's shortest-path tree spanning every
// sink (using the GIT heuristic over the sinks, which is exact for one
// sink) and wires delivery.
func NewMulticast(kernel *sim.Kernel, net *mac.Network, field *topology.Field,
	roles diffusion.Roles, observer diffusion.Observer) (*Multicast, error) {
	if len(roles.Sinks) == 0 || len(roles.Sources) == 0 {
		return nil, fmt.Errorf("idealized: need sinks and sources")
	}
	m := &Multicast{
		kernel:   kernel,
		net:      net,
		roles:    roles,
		observer: observer,
		children: make(map[topology.NodeID]map[topology.NodeID][]topology.NodeID),
		isSink:   make(map[topology.NodeID]bool, len(roles.Sinks)),
		seqs:     make(map[topology.NodeID]int),
	}
	for _, s := range roles.Sinks {
		m.isSink[s] = true
	}
	for _, src := range roles.Sources {
		// Build the multicast tree rooted at the source by treating the
		// source as the "sink" of a GIT over the real sinks.
		tree, err := datacentric.GIT(field, src, roles.Sinks)
		if err != nil {
			return nil, fmt.Errorf("idealized: source %d: %w", src, err)
		}
		kids := make(map[topology.NodeID][]topology.NodeID)
		// Orient the undirected tree away from the source with a DFS.
		adj := make(map[topology.NodeID][]topology.NodeID)
		for e := range tree.Edges {
			adj[e.A] = append(adj[e.A], e.B)
			adj[e.B] = append(adj[e.B], e.A)
		}
		visited := map[topology.NodeID]bool{src: true}
		stack := []topology.NodeID{src}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					kids[v] = append(kids[v], w)
					stack = append(stack, w)
				}
			}
		}
		m.children[src] = kids
	}
	for i := 0; i < field.Len(); i++ {
		id := topology.NodeID(i)
		net.SetReceiver(id, func(from topology.NodeID, fr mac.Frame) { m.receive(id, fr) })
	}
	return m, nil
}

// Sent returns the number of data unicasts handed to the MAC.
func (m *Multicast) Sent() int { return m.sent }

// Start schedules event generation at every source.
func (m *Multicast) Start() {
	for _, src := range m.roles.Sources {
		src := src
		jitter := time.Duration(m.kernel.Rand().Int63n(int64(diffusion.DataPeriod)))
		m.kernel.Schedule(jitter, func() { m.generate(src) })
	}
}

func (m *Multicast) generate(src topology.NodeID) {
	defer m.kernel.Schedule(diffusion.DataPeriod, func() { m.generate(src) })
	if !m.net.On(src) {
		return
	}
	item := msg.Item{Source: src, Seq: m.seqs[src], GenTime: int64(m.kernel.Now())}
	m.seqs[src]++
	if m.observer != nil {
		m.observer.Generated(src, item)
	}
	m.forward(src, src, item)
}

func (m *Multicast) forward(src, at topology.NodeID, item msg.Item) {
	if m.isSink[at] && m.observer != nil {
		m.observer.Delivered(at, item, m.kernel.Now()-time.Duration(item.GenTime))
	}
	// The per-child payload rides one more transmission than the copy that
	// arrived here, so sinks observe their tree depth in Hops.
	next := item
	if next.Hops < math.MaxUint16 {
		next.Hops++
	}
	for _, child := range m.children[src][at] {
		out := msg.Message{
			Kind:     msg.KindData,
			Interest: 0,
			Origin:   src,
			Items:    []msg.Item{next},
			W:        1,
			Bytes:    msg.EventBytes,
		}
		m.sent++
		_ = m.net.Unicast(at, child, mac.Frame{Bytes: out.Bytes, Payload: out})
	}
}

func (m *Multicast) receive(at topology.NodeID, fr mac.Frame) {
	om, ok := fr.Payload.(msg.Message)
	if !ok || len(om.Items) != 1 {
		return
	}
	m.forward(om.Origin, at, om.Items[0])
}
