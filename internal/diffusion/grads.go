package diffusion

import (
	"math/bits"
	"slices"
	"time"

	"repro/internal/topology"
)

type gradKind uint8

const (
	gradExploratory gradKind = iota + 1
	gradData
)

// gradSlot is one slot of a gradTable: a downstream neighbor's gradient,
// 16 bytes, or an empty slot.
type gradSlot struct {
	nbr     int32 // neighbor id plus one; zero marks an empty slot
	kind    gradKind
	expires time.Duration
}

// gradTable maps downstream neighbor -> gradient (data sent to that
// neighbor flows toward the interest's sink). Every neighbor's interest
// copy refreshes its gradient, so the table holds about one gradient per
// neighbor, and the refresh is the hot path, which open addressing serves
// in about one probe. Beside it, data lists the neighbors whose gradient
// is a data gradient, in ascending order, so readers of the few data
// gradients skip the many exploratory ones. Expiry is lazy, as in the
// sorted tables (table.go): an expired gradient stays until expire
// compacts it.
type gradTable struct {
	slots []gradSlot // linear probing, a power-of-two length at most 3/4 full
	data  []topology.NodeID
	n     int32 // occupied slots
	shift uint8 // 64 minus log2(len(slots))
}

// home returns nbr's first probe slot: Fibonacci hashing of the id.
func (t *gradTable) home(nbr int32) int {
	return int(uint64(nbr) * 0x9E3779B97F4A7C15 >> t.shift)
}

// probe returns the slot holding nbr, or the empty slot where it belongs.
func (t *gradTable) probe(nbr topology.NodeID) *gradSlot {
	key := int32(nbr) + 1
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.nbr == key || s.nbr == 0 {
			return s
		}
	}
}

// ref returns nbr's gradient in place, or nil. The pointer is valid only
// until the next insert.
func (t *gradTable) ref(nbr topology.NodeID) *gradSlot {
	if t.n == 0 {
		return nil
	}
	if s := t.probe(nbr); s.nbr != 0 {
		return s
	}
	return nil
}

// getOrInsert returns nbr's gradient in place, inserting a zero gradient if
// absent; existed reports which case applied. degree sizes the first
// allocation: a node ends up holding a gradient toward about every
// neighbor. The pointer is valid only until the next insert.
func (t *gradTable) getOrInsert(nbr topology.NodeID, degree int) (g *gradSlot, existed bool) {
	if t.slots == nil {
		t.resize(max(16, degree*4/3))
	}
	s := t.probe(nbr)
	if s.nbr != 0 {
		return s, true
	}
	if 4*(int(t.n)+1) > 3*len(t.slots) {
		t.resize(2 * len(t.slots))
		s = t.probe(nbr)
	}
	t.n++
	*s = gradSlot{nbr: int32(nbr) + 1}
	return s, false
}

// resize rehashes into a fresh slot array of at least size slots.
func (t *gradTable) resize(size int) {
	old := t.slots
	logSize := bits.Len(uint(size - 1))
	t.slots = make([]gradSlot, 1<<logSize)
	t.shift = uint8(64 - logSize)
	t.reinsert(old)
}

// reinsert places every occupied slot of from into the table.
func (t *gradTable) reinsert(from []gradSlot) {
	mask := len(t.slots) - 1
	for _, s := range from {
		if s.nbr == 0 {
			continue
		}
		i := t.home(s.nbr)
		for t.slots[i].nbr != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// setData records whether nbr's gradient is now a data gradient, keeping
// data in ascending order.
func (t *gradTable) setData(nbr topology.NodeID, data bool) {
	i, found := slices.BinarySearch(t.data, nbr)
	switch {
	case data && !found:
		t.data = slices.Insert(t.data, i, nbr)
	case !data && found:
		t.data = slices.Delete(t.data, i, i+1)
	}
}

// expire drops every gradient that has expired by now, rehashing the
// survivors in place through scratch, which it may grow. Interest floods
// keep refreshing the gradients of live neighbors, so most passes find
// nothing to drop.
func (t *gradTable) expire(now time.Duration, scratch *[]gradSlot) {
	if !slices.ContainsFunc(t.slots, func(s gradSlot) bool { return s.nbr != 0 && s.expires <= now }) {
		return
	}
	live := (*scratch)[:0]
	for _, s := range t.slots {
		if s.nbr != 0 && s.expires > now {
			live = append(live, s)
		}
	}
	*scratch = live
	clear(t.slots)
	t.n = int32(len(live))
	t.reinsert(live)
	t.data = slices.DeleteFunc(t.data, func(nbr topology.NodeID) bool { return t.ref(nbr) == nil })
}
