package diffusion

// Deterministic ordered soft-state tables.
//
// The diffusion node used to keep its per-interest soft state in Go maps and
// sort the key sets on every hot-path call that needed deterministic
// iteration. A sorted-insert slice table replaces that pattern: inserts keep
// ascending key order, so every iteration is deterministic for free and no
// lookup, insert, or traversal allocates. One generic table backs every
// soft-state collection: gradients by downstream neighbor, exploratory
// entries by message id, interest states by interest id, last-heard times
// by node id, and link-quality estimates by neighbor.
//
// Three rules govern the tables (see DESIGN.md §8):
//
//   - Ordering invariant: entries are always sorted by key; iterating es
//     front to back visits keys in ascending order.
//   - Pointer stability: values live in the table's one slice, so a *V from
//     ref/getOrInsert is valid only until the next insert — callers mutate
//     immediately and never hold one across calls. Exploratory entries and
//     interest states are stored as pointers because timer records hold them
//     across kernel events.
//   - Lazy expiry: expired entries stay in the tables (preserving the
//     hit/miss semantics of the gradient telemetry counters) until the
//     periodic prune pass compacts them out with keep; every use site checks
//     expiry as it iterates.

import "cmp"

// tableEntry is one key and its value, stored side by side.
type tableEntry[K cmp.Ordered, V any] struct {
	key K
	val V
}

// table maps K to V in one slice sorted by key. Slots between len and cap
// always hold zero values, so a dropped pointer value can be collected.
type table[K cmp.Ordered, V any] struct{ es []tableEntry[K, V] }

// find returns the index of k's entry, or the index where it would be
// inserted.
func (t *table[K, V]) find(k K) int {
	lo, hi := 0, len(t.es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.es[mid].key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ref returns k's value in place, or nil. The pointer is valid only until
// the next insert.
func (t *table[K, V]) ref(k K) *V {
	if i := t.find(k); i < len(t.es) && t.es[i].key == k {
		return &t.es[i].val
	}
	return nil
}

// get returns k's value, or the zero value when k is absent — nil for the
// pointer tables. Use ref where absence must differ from a zero value. The
// single named result keeps get within the compiler's inlining budget.
func (t *table[K, V]) get(k K) (v V) {
	if i := t.find(k); i < len(t.es) && t.es[i].key == k {
		v = t.es[i].val
	}
	return v
}

// getOrInsert returns k's value in place, inserting a zero value in key
// order if absent; existed reports which case applied.
func (t *table[K, V]) getOrInsert(k K) (v *V, existed bool) {
	i := t.find(k)
	if i < len(t.es) && t.es[i].key == k {
		return &t.es[i].val, true
	}
	t.es = append(t.es, tableEntry[K, V]{})
	copy(t.es[i+1:], t.es[i:])
	t.es[i] = tableEntry[K, V]{key: k}
	return &t.es[i].val, false
}

// put installs v under k, replacing any existing value.
func (t *table[K, V]) put(k K, v V) {
	p, _ := t.getOrInsert(k)
	*p = v
}

func (t *table[K, V]) size() int { return len(t.es) }

// keep drops every entry whose value fails live, in one ordered in-place
// pass, and clears the vacated slots.
func (t *table[K, V]) keep(live func(V) bool) {
	w := 0
	for _, e := range t.es {
		if live(e.val) {
			t.es[w] = e
			w++
		}
	}
	clear(t.es[w:])
	t.es = t.es[:w]
}

// reset drops every entry and clears its slot, keeping the capacity.
func (t *table[K, V]) reset() {
	clear(t.es)
	t.es = t.es[:0]
}
