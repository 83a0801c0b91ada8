package mac

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/topology"
)

// Checkpoint encode/decode for the MAC (DESIGN.md §12).
//
// The MAC owns three runner shapes in the kernel's pending set — per-node
// carrier-sense wake-ups, in-flight transmissions, and pooled delayed steps
// (SIFS gaps, ACK timeouts) — plus the per-node slabs. Pointer-valued state
// is encoded by reference:
//
//   - outFrame references resolve to (node, queue index) while queued; a
//     frame no longer queued anywhere (its owner failed and dropped its
//     queue, leaving a pending timeout holding the record) is emitted into a
//     deduplicated orphan table.
//   - audible lists reference in-flight transmissions by their index in
//     event-encounter order, so the snapshotter must see every transmission
//     runner (via EncodeRunner) before EncodeState runs, and the restorer
//     rebinds the lists in a final pass (BindAudible) after every runner is
//     decoded.
//   - Receiver-set slots are not serialized: decoding re-derives the
//     unicast destination's slot, and BindAudible each audible slot, by
//     scanning the transmission's receiver entries for the node.
//
// Free pools are not serialized: allocating from a pool versus fresh is
// unobservable, so a restored network simply starts with empty pools.

// Runner payload tags.
const (
	macRunnerSense uint8 = iota + 1
	macRunnerTx
	macRunnerCall
)

// outFrame reference tags.
const (
	frameRefNone uint8 = iota
	frameRefQueued
	frameRefOrphan
)

// Snapshotter encodes a network's checkpoint state. Use one per snapshot:
// first offer every pending runner to EncodeRunner (in firing order), then
// call EncodeState.
type Snapshotter struct {
	net       *Network
	txIndex   map[*transmission]int
	orphans   []*outFrame
	orphanIdx map[*outFrame]int
}

// NewSnapshotter returns a snapshotter for one checkpoint of n.
func NewSnapshotter(n *Network) *Snapshotter {
	return &Snapshotter{
		net:       n,
		txIndex:   make(map[*transmission]int),
		orphanIdx: make(map[*outFrame]int),
	}
}

// EncodeRunner appends r's payload to w if the MAC owns it, reporting
// whether it did.
func (s *Snapshotter) EncodeRunner(w *snap.Writer, r sim.Runner) (bool, error) {
	switch v := r.(type) {
	case *senseEvent:
		if v.net != s.net {
			return false, nil
		}
		w.U8(macRunnerSense)
		w.Int(int(v.ns.id))
		return true, nil
	case *transmission:
		if v.net != s.net {
			return false, nil
		}
		w.U8(macRunnerTx)
		s.txIndex[v] = len(s.txIndex)
		w.U8(uint8(v.kind))
		w.Int(int(v.from))
		w.Int(int(v.to))
		if err := encodeFramePayload(w, v.frame); err != nil {
			return true, err
		}
		w.I64(int64(v.nav))
		w.U32(uint32(len(v.recv)))
		for _, e := range v.recv {
			w.Int(int(e.id))
			w.U8(e.flags)
		}
		peer := -1
		if v.peer != nil {
			peer = int(v.peer.id)
		}
		w.Int(peer)
		s.encodeFrameRef(w, v.of)
		return true, nil
	case *pendingCall:
		if v.net != s.net {
			return false, nil
		}
		w.U8(macRunnerCall)
		w.U8(uint8(v.op))
		a, b := -1, -1
		if v.a != nil {
			a = int(v.a.id)
		}
		if v.b != nil {
			b = int(v.b.id)
		}
		w.Int(a)
		w.Int(b)
		s.encodeFrameRef(w, v.of)
		w.Int(int(v.peer))
		w.U32(v.gen)
		return true, nil
	}
	return false, nil
}

// encodeFrameRef writes a reference to of: nil, (node, queue index), or an
// orphan-table index (deduplicated, so two timeouts sharing a dropped frame
// decode back to one shared record).
func (s *Snapshotter) encodeFrameRef(w *snap.Writer, of *outFrame) {
	if of == nil {
		w.U8(frameRefNone)
		return
	}
	for i := range s.net.nodes {
		for j, q := range s.net.nodes[i].queue {
			if q == of {
				w.U8(frameRefQueued)
				w.Int(i)
				w.Int(j)
				return
			}
		}
	}
	idx, ok := s.orphanIdx[of]
	if !ok {
		idx = len(s.orphans)
		s.orphans = append(s.orphans, of)
		s.orphanIdx[of] = idx
	}
	w.U8(frameRefOrphan)
	w.Int(idx)
}

// EncodeState writes the per-node slabs, the orphan-frame table, and the
// link-layer counters. It must run after every pending runner passed through
// EncodeRunner — the transmission and orphan tables are built there.
func (s *Snapshotter) EncodeState(w *snap.Writer) error {
	n := s.net
	w.Int(len(n.nodes))
	for i := range n.nodes {
		ns := &n.nodes[i]
		w.Bool(ns.on)
		w.U32(uint32(len(ns.queue)))
		for _, of := range ns.queue {
			if err := encodeOutFrame(w, of); err != nil {
				return err
			}
		}
		w.Bool(ns.sending)
		w.Bool(ns.txActive)
		w.U32(uint32(len(ns.audible)))
		for _, h := range ns.audible {
			idx, ok := s.txIndex[h.tx]
			if !ok {
				return fmt.Errorf("mac: node %d audible transmission has no pending event", i)
			}
			w.Int(idx)
		}
		w.Int(ns.cw)
		w.I64(int64(ns.navUntil))
		w.I64(int64(ns.busyUntil))
	}
	w.U32(uint32(len(s.orphans)))
	for _, of := range s.orphans {
		if err := encodeOutFrame(w, of); err != nil {
			return err
		}
	}
	encodeStats(w, n.stats)
	return nil
}

func encodeFramePayload(w *snap.Writer, f Frame) error {
	w.Int(f.Bytes)
	switch p := f.Payload.(type) {
	case nil:
		w.U8(0)
	case msg.Message:
		w.U8(1)
		msg.EncodeMessage(w, p)
	default:
		return fmt.Errorf("mac: cannot checkpoint frame payload of type %T", p)
	}
	return nil
}

func decodeFramePayload(r *snap.Reader) Frame {
	f := Frame{Bytes: r.Int()}
	switch tag := r.U8(); tag {
	case 0:
	case 1:
		f.Payload = msg.DecodeMessage(r)
	default:
		r.Fail(fmt.Errorf("mac: unknown frame payload tag %d", tag))
	}
	return f
}

func encodeOutFrame(w *snap.Writer, of *outFrame) error {
	w.Int(int(of.to))
	if err := encodeFramePayload(w, of.frame); err != nil {
		return err
	}
	w.Int(of.retries)
	w.Bool(of.released)
	w.U32(of.gen)
	w.Bool(of.awaitRemote)
	return nil
}

func decodeOutFrame(r *snap.Reader) *outFrame {
	of := &outFrame{to: topology.NodeID(r.Int())}
	of.frame = decodeFramePayload(r)
	of.retries = r.Int()
	of.released = r.Bool()
	of.gen = r.U32()
	of.awaitRemote = r.Bool()
	return of
}

func encodeStats(w *snap.Writer, st Stats) {
	w.Int(st.DataTx)
	w.Int(st.AckTx)
	w.Int(st.RtsTx)
	w.Int(st.CtsTx)
	w.Int(st.Delivered)
	w.Int(st.Collisions)
	reasons := make([]int, 0, len(st.Drops))
	for k := range st.Drops {
		reasons = append(reasons, int(k))
	}
	sort.Ints(reasons)
	w.U32(uint32(len(reasons)))
	for _, k := range reasons {
		w.Int(k)
		w.Int(st.Drops[DropReason(k)])
	}
	w.Int(st.Retries)
	w.Int(st.Backoffs)
	w.Int(st.QueueMax)
	w.I64(st.BytesOnAir)
	w.Int(st.AcksMissing)
	w.Int(st.LinkLoss)
	w.Int(st.RemoteMails)
}

func decodeStats(r *snap.Reader) Stats {
	var st Stats
	st.DataTx = r.Int()
	st.AckTx = r.Int()
	st.RtsTx = r.Int()
	st.CtsTx = r.Int()
	st.Delivered = r.Int()
	st.Collisions = r.Int()
	nd := int(r.U32())
	st.Drops = make(map[DropReason]int, nd)
	for i := 0; i < nd && r.Err() == nil; i++ {
		k := r.Int()
		st.Drops[DropReason(k)] = r.Int()
	}
	st.Retries = r.Int()
	st.Backoffs = r.Int()
	st.QueueMax = r.Int()
	st.BytesOnAir = r.I64()
	st.AcksMissing = r.Int()
	st.LinkLoss = r.Int()
	st.RemoteMails = r.Int()
	return st
}

// Restorer decodes a network checkpoint into a freshly built Network over
// the same (field, params, model). Call DecodeState first, then DecodeRunner
// for every MAC-owned event payload in firing order, then BindAudible.
type Restorer struct {
	net     *Network
	orphans []*outFrame
	audible [][]int
	txs     []*transmission
}

// NewRestorer returns a restorer writing into n.
func NewRestorer(n *Network) *Restorer {
	return &Restorer{net: n}
}

// DecodeState overwrites the per-node slabs and counters from the snapshot.
func (d *Restorer) DecodeState(r *snap.Reader) error {
	n := d.net
	count := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if count != len(n.nodes) {
		return fmt.Errorf("mac: snapshot has %d nodes, network has %d", count, len(n.nodes))
	}
	d.audible = make([][]int, count)
	for i := range n.nodes {
		ns := &n.nodes[i]
		ns.on = r.Bool()
		qn := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if qn > r.Remaining() {
			return fmt.Errorf("mac: node %d queue length %d exceeds snapshot size", i, qn)
		}
		ns.queue = nil
		for j := 0; j < qn; j++ {
			ns.queue = append(ns.queue, decodeOutFrame(r))
		}
		ns.sending = r.Bool()
		ns.txActive = r.Bool()
		an := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if an > r.Remaining() {
			return fmt.Errorf("mac: node %d audible length %d exceeds snapshot size", i, an)
		}
		for j := 0; j < an; j++ {
			d.audible[i] = append(d.audible[i], r.Int())
		}
		ns.cw = r.Int()
		ns.navUntil = time.Duration(r.I64())
		ns.busyUntil = time.Duration(r.I64())
	}
	on := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if on > r.Remaining() {
		return fmt.Errorf("mac: orphan table length %d exceeds snapshot size", on)
	}
	for i := 0; i < on; i++ {
		d.orphans = append(d.orphans, decodeOutFrame(r))
	}
	n.stats = decodeStats(r)
	return r.Err()
}

// DecodeRunner rebuilds one MAC-owned runner from its payload. Callers must
// invoke it for payloads in the same order EncodeRunner saw them, so
// transmission indices line up for BindAudible.
func (d *Restorer) DecodeRunner(r *snap.Reader) (sim.Runner, error) {
	n := d.net
	tag := r.U8()
	if r.Err() != nil {
		return nil, r.Err()
	}
	switch tag {
	case macRunnerSense:
		id := r.Int()
		if err := d.checkNode(id, r); err != nil {
			return nil, err
		}
		return &n.nodes[id].sense, nil
	case macRunnerTx:
		tx := &transmission{net: n}
		tx.kind = txKind(r.U8())
		from := r.Int()
		if err := d.checkNode(from, r); err != nil {
			return nil, err
		}
		tx.from = topology.NodeID(from)
		tx.to = topology.NodeID(r.Int())
		tx.frame = decodeFramePayload(r)
		tx.nav = time.Duration(r.I64())
		rn := int(r.U32())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if rn > r.Remaining() {
			return nil, fmt.Errorf("mac: receiver set length %d exceeds snapshot size", rn)
		}
		for i := 0; i < rn; i++ {
			id := r.Int()
			if err := d.checkNode(id, r); err != nil {
				return nil, err
			}
			tx.recv = append(tx.recv, rxEntry{id: topology.NodeID(id), flags: r.U8()})
		}
		tx.dst = slotOf(tx, tx.to) + 1
		tx.owner = &n.nodes[from]
		if peer := r.Int(); peer >= 0 {
			if err := d.checkNode(peer, r); err != nil {
				return nil, err
			}
			tx.peer = &n.nodes[peer]
		}
		var err error
		tx.of, err = d.decodeFrameRef(r)
		if err != nil {
			return nil, err
		}
		d.txs = append(d.txs, tx)
		return tx, nil
	case macRunnerCall:
		c := &pendingCall{net: n}
		c.op = callOp(r.U8())
		if a := r.Int(); a >= 0 {
			if err := d.checkNode(a, r); err != nil {
				return nil, err
			}
			c.a = &n.nodes[a]
		}
		if b := r.Int(); b >= 0 {
			if err := d.checkNode(b, r); err != nil {
				return nil, err
			}
			c.b = &n.nodes[b]
		}
		var err error
		c.of, err = d.decodeFrameRef(r)
		if err != nil {
			return nil, err
		}
		c.peer = topology.NodeID(r.Int())
		c.gen = r.U32()
		return c, nil
	default:
		return nil, fmt.Errorf("mac: unknown runner tag %d", tag)
	}
}

func (d *Restorer) checkNode(id int, r *snap.Reader) error {
	if err := r.Err(); err != nil {
		return err
	}
	if id < 0 || id >= len(d.net.nodes) {
		return fmt.Errorf("mac: snapshot references node %d of %d", id, len(d.net.nodes))
	}
	return nil
}

func (d *Restorer) decodeFrameRef(r *snap.Reader) (*outFrame, error) {
	switch tag := r.U8(); tag {
	case frameRefNone:
		return nil, r.Err()
	case frameRefQueued:
		node := r.Int()
		idx := r.Int()
		if err := d.checkNode(node, r); err != nil {
			return nil, err
		}
		q := d.net.nodes[node].queue
		if idx < 0 || idx >= len(q) {
			return nil, fmt.Errorf("mac: frame ref (%d, %d) outside queue of %d", node, idx, len(q))
		}
		return q[idx], nil
	case frameRefOrphan:
		idx := r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if idx < 0 || idx >= len(d.orphans) {
			return nil, fmt.Errorf("mac: orphan ref %d outside table of %d", idx, len(d.orphans))
		}
		return d.orphans[idx], nil
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("mac: unknown frame ref tag %d", tag)
	}
}

// BindAudible rebuilds every node's audible list from the decoded
// transmissions. Call once, after the last DecodeRunner.
func (d *Restorer) BindAudible() error {
	for i, idxs := range d.audible {
		ns := &d.net.nodes[i]
		ns.audible = nil
		for _, idx := range idxs {
			if idx < 0 || idx >= len(d.txs) {
				return fmt.Errorf("mac: node %d audible ref %d outside %d transmissions", i, idx, len(d.txs))
			}
			tx := d.txs[idx]
			slot := slotOf(tx, ns.id)
			if slot < 0 {
				return fmt.Errorf("mac: node %d hears transmission %d without a receiver entry", i, idx)
			}
			ns.audible = append(ns.audible, hearing{tx: tx, slot: slot})
		}
	}
	return nil
}

// slotOf returns the index of id's entry in tx's receiver set, or -1.
func slotOf(tx *transmission, id topology.NodeID) int32 {
	for i := range tx.recv {
		if tx.recv[i].id == id {
			return int32(i)
		}
	}
	return -1
}
