package diffusion

import (
	"cmp"
	"math/rand"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/topology"
)

// tableKeys returns t's keys in stored order.
func tableKeys[K cmp.Ordered, V any](t *table[K, V]) []K {
	out := make([]K, 0, t.size())
	for _, e := range t.es {
		out = append(out, e.key)
	}
	return out
}

// checkTable fails unless tab's keys ascend strictly and its contents equal
// want.
func checkTable[K cmp.Ordered, V comparable](t *testing.T, step int, tab *table[K, V], want map[K]V) {
	t.Helper()
	if tab.size() != len(want) {
		t.Fatalf("step %d: table holds %d entries, map %d", step, tab.size(), len(want))
	}
	for i, e := range tab.es {
		if i > 0 && tab.es[i-1].key >= e.key {
			t.Fatalf("step %d: keys out of order at %d: %v then %v", step, i, tab.es[i-1].key, e.key)
		}
		if w, ok := want[e.key]; !ok || w != e.val {
			t.Fatalf("step %d: key %v holds %v, map has %v (present %v)", step, e.key, e.val, w, ok)
		}
	}
}

// checkSpare fails unless every slot between tab's length and capacity
// holds a zero entry, so nothing the table dropped stays reachable.
func checkSpare[K cmp.Ordered, V comparable](t *testing.T, step int, tab *table[K, V]) {
	t.Helper()
	var zero tableEntry[K, V]
	for i, e := range tab.es[len(tab.es):cap(tab.es)] {
		if e != zero {
			t.Fatalf("step %d: spare slot %d holds %v", step, len(tab.es)+i, e)
		}
	}
}

// driveTable applies a seeded random sequence of put, getOrInsert, ref,
// get, keep and reset to one table and to a Go map, checking the table
// against the map after every operation. key and val map small integers to
// keys and values; live is the keep predicate.
func driveTable[K cmp.Ordered, V comparable](t *testing.T, seed int64, key func(int) K, val func(int) V, live func(V) bool) {
	rng := rand.New(rand.NewSource(seed))
	var tab table[K, V]
	want := map[K]V{}
	var zero V
	keeps, resets := 0, 0
	for step := 0; step < 20000; step++ {
		k := key(rng.Intn(64))
		switch op := rng.Intn(40); {
		case op < 12:
			v := val(rng.Int())
			tab.put(k, v)
			want[k] = v
		case op < 22:
			p, existed := tab.getOrInsert(k)
			w, ok := want[k]
			if existed != ok || *p != w {
				t.Fatalf("step %d: getOrInsert(%v) = %v, %v; map has %v, %v", step, k, *p, existed, w, ok)
			}
			if !existed && *p != zero {
				t.Fatalf("step %d: getOrInsert(%v) inserted %v, want the zero value", step, k, *p)
			}
			v := val(rng.Int())
			*p = v
			want[k] = v
		case op < 30:
			p := tab.ref(k)
			w, ok := want[k]
			if (p != nil) != ok || (ok && *p != w) {
				t.Fatalf("step %d: ref(%v) = %v; map has %v, %v", step, k, p, w, ok)
			}
		case op < 38:
			if got := tab.get(k); got != want[k] {
				t.Fatalf("step %d: get(%v) = %v, map has %v", step, k, got, want[k])
			}
		case op == 38:
			tab.keep(live)
			for mk, mv := range want {
				if !live(mv) {
					delete(want, mk)
				}
			}
			keeps++
			checkSpare(t, step, &tab)
		default:
			tab.reset()
			clear(want)
			resets++
			checkSpare(t, step, &tab)
		}
		checkTable(t, step, &tab, want)
	}
	if keeps == 0 || resets == 0 {
		t.Fatalf("script ran %d keeps and %d resets, want both", keeps, resets)
	}
}

// TestTableMatchesMap drives a value table and a pointer table through the
// same random operations as a Go map: the table must hold exactly the map's
// contents, in strictly ascending key order, after every step.
func TestTableMatchesMap(t *testing.T) {
	t.Run("value", func(t *testing.T) {
		driveTable(t, 1,
			func(i int) topology.NodeID { return topology.NodeID(i) },
			func(i int) time.Duration { return time.Duration(i % 1000) },
			func(at time.Duration) bool { return at%3 != 0 })
	})
	t.Run("pointer", func(t *testing.T) {
		driveTable(t, 2,
			// Spread the keys over the whole unsigned range, top bit included.
			func(i int) msg.MsgID { return msg.MsgID(uint64(i) * 0x9E3779B97F4A7C15) },
			func(i int) *entryState { return &entryState{created: time.Duration(i % 1000)} },
			func(e *entryState) bool { return e.created%3 != 0 })
	})
}
