package diffusion

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/topology"
	"repro/internal/trace"
)

// maxScript caps a fuzz input at this many bytes, so every input runs in
// milliseconds.
const maxScript = 3 * 4096

// randomScript returns steps three-byte script steps drawn from seed.
func randomScript(seed int64, steps int) []byte {
	b := make([]byte, 3*steps)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// dupScript counts what a duplicate-cache script exercised.
type dupScript struct {
	belowWindow, readds, longTTL, prunes int
}

// driveDupCache runs a script of three-byte steps against a dupCache and a
// Go map. Each step is an operation byte, a byte choosing the source (and
// the clock advance or the prune's TTL) and a signed offset of the sequence
// number from a high-water mark that follows the clock at one number per
// DataPeriod, as a source's numbers do, so numbers arrive out of order and
// below a source's window. An add writes the map only if the key is
// absent: every caller in the protocol adds only keys it has just found
// absent. After every step the cache must hold exactly the map's keys, its
// log in time order with the map's times, and each source's window must
// fit its stride with every slot outside it zero.
func driveDupCache(t *testing.T, ops []byte) dupScript {
	t.Helper()
	var (
		c       dupCache
		s       dupScript
		now     time.Duration
		ref     = map[msg.ItemKey]time.Duration{}
		expired = map[msg.ItemKey]bool{}
	)
	for step := 0; len(ops) >= 3; step++ {
		op, a, b := ops[0], ops[1], ops[2]
		ops = ops[3:]
		k := msg.ItemKey{Source: topology.NodeID(a % 8), Seq: int(now/DataPeriod) + int(int8(b))}
		switch op % 8 {
		case 0, 1, 2:
			if i := c.find(k.Source); i >= 0 && c.srcs[i].lo < c.srcs[i].hi && k.Seq>>6 < c.srcs[i].lo {
				s.belowWindow++
			}
			if _, ok := ref[k]; !ok {
				ref[k] = now
				if expired[k] {
					s.readds++
				}
			}
			c.add(k, now)
		case 3, 4:
			if _, want := ref[k]; c.has(k) != want {
				t.Fatalf("step %d: has(%v) = %v, map %v", step, k, !want, want)
			}
		case 5, 6:
			now += time.Duration(a) * 100 * time.Millisecond
		default:
			// The sink's duplicate cache outlives every replay of the
			// repair layer; every other cache expires after DataCacheTTL.
			ttl := DataCacheTTL
			if a&1 != 0 {
				ttl = 2 * exploratoryPeriod
				s.longTTL++
			}
			c.expire(now, ttl)
			for key, at := range ref {
				if now-at > ttl {
					delete(ref, key)
					expired[key] = true
				}
			}
			s.prunes++
		}
		checkDupCache(t, step, &c, ref)
	}
	return s
}

// checkDupCache fails unless c holds exactly ref's keys at ref's times.
func checkDupCache(t *testing.T, step int, c *dupCache, ref map[msg.ItemKey]time.Duration) {
	t.Helper()
	if c.size() != len(ref) {
		t.Fatalf("step %d: cache holds %d items, map %d", step, c.size(), len(ref))
	}
	for i := 0; i < c.count; i++ {
		m := c.mark(i)
		if at, ok := ref[m.key]; !ok || at != m.at {
			t.Fatalf("step %d: log entry %d is %v at %v; map has %v (present %v)", step, i, m.key, m.at, at, ok)
		}
		if i > 0 && m.at < c.mark(i-1).at {
			t.Fatalf("step %d: log out of time order at %d", step, i)
		}
	}
	for k := range ref {
		if !c.has(k) {
			t.Fatalf("step %d: has(%v) = false for a held item", step, k)
		}
	}
	for i, s := range c.srcs {
		if s.hi-s.lo > c.stride {
			t.Fatalf("step %d: source %d's window [%d, %d) exceeds stride %d", step, s.src, s.lo, s.hi, c.stride)
		}
		held := map[int]bool{}
		for w := s.lo; w < s.hi; w++ {
			held[i*c.stride+w&(c.stride-1)] = true
		}
		for j := i * c.stride; j < (i+1)*c.stride; j++ {
			if !held[j] && c.words[j] != 0 {
				t.Fatalf("step %d: source %d's slot %d outside its window holds %#x", step, s.src, j, c.words[j])
			}
		}
	}
}

// TestDupCacheMatchesMap drives the duplicate cache and a Go map through
// the same seeded script; see driveDupCache.
func TestDupCacheMatchesMap(t *testing.T) {
	s := driveDupCache(t, randomScript(1, 20000))
	if s.belowWindow == 0 || s.readds == 0 || s.longTTL == 0 || s.prunes == 0 {
		t.Fatalf("script exercised %+v, want each case", s)
	}
}

func FuzzDupCache(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 1, 3, 1, 0, 5, 255, 0, 7, 0, 0, 3, 1, 0})
	f.Add([]byte{0, 2, 120, 0, 2, 130, 5, 200, 0, 0, 2, 0, 7, 1, 0, 0, 2, 120, 4, 2, 120})
	f.Add(randomScript(2, 300))
	f.Fuzz(func(t *testing.T, ops []byte) {
		driveDupCache(t, ops[:min(len(ops), maxScript)])
	})
}

// refGradient is a gradient as the sorted table stored it.
type refGradient struct {
	kind    gradKind
	expires time.Duration
}

// refSetGradient is setGradient on the sorted table the gradient table
// replaced. It reports whether nbr already had a gradient.
func refSetGradient(tab *table[topology.NodeID, refGradient], nbr topology.NodeID, kind gradKind, now time.Duration) bool {
	g, existed := tab.getOrInsert(nbr)
	switch {
	case kind == gradData:
		g.kind = gradData
		g.expires = now + dataGradientTimeout
	case existed && g.kind == gradData:
		if e := now + exploratoryGradientTimeout; e > g.expires {
			g.expires = e
		}
	default:
		g.kind = gradExploratory
		g.expires = now + exploratoryGradientTimeout
	}
	return existed
}

// driveGradTable runs a script of three-byte steps against a node's
// gradient table and the sorted reference: interest copies, reinforcements,
// degrades, clock advances and prunes toward neighbor ids spread up to
// 49,215. After every step the hit and miss counters, every gradient, the
// ascending data list, dataGradients and hasDataGradient must match the
// reference, and every eighth step so must the Snapshot. It returns the
// most slots the table held and how many degrades changed a gradient.
func driveGradTable(t *testing.T, ops []byte) (maxSlots, degrades int) {
	t.Helper()
	k, net, f := testNet(t, 1, linePoints(3))
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{2},
		Sources: []topology.NodeID{0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := rt.Node(1)
	st := n.state(0)
	var ref table[topology.NodeID, refGradient]
	hits, misses := 0, 0
	for step := 0; len(ops) >= 3; step++ {
		op, a, b := ops[0], ops[1], ops[2]
		ops = ops[3:]
		nbr := topology.NodeID(int(a) * 193)
		now := k.Now()
		switch op % 8 {
		case 0, 1, 2, 3:
			kind := gradExploratory
			if op%8 == 3 {
				kind = gradData
			}
			if refSetGradient(&ref, nbr, kind, now) {
				hits++
			} else {
				misses++
			}
			n.setGradient(st, nbr, kind)
		case 4:
			want := false
			if g := ref.ref(nbr); g != nil && g.kind == gradData {
				g.kind = gradExploratory
				g.expires = now + exploratoryGradientTimeout
				want = true
			}
			if got := n.degradeGradient(st, nbr); got != want {
				t.Fatalf("step %d: degradeGradient(%d) = %v, reference %v", step, nbr, got, want)
			}
			if want {
				degrades++
			}
		case 5, 6:
			k.Run(now + time.Duration(b)*250*time.Millisecond)
		default:
			ref.keep(func(g refGradient) bool { return g.expires > now })
			st.grads.expire(now, &rt.sc.slots)
		}
		if c := rt.count; c.GradientHits != hits || c.GradientMisses != misses {
			t.Fatalf("step %d: %d hits, %d misses; reference %d, %d", step, c.GradientHits, c.GradientMisses, hits, misses)
		}
		checkGradTable(t, step, rt, n, st, &ref, step%8 == 0)
		maxSlots = max(maxSlots, len(st.grads.slots))
	}
	return maxSlots, degrades
}

// checkGradTable fails unless st's gradients and every reader of them
// agree with the reference.
func checkGradTable(t *testing.T, step int, rt *Runtime, n *node, st *interestState, ref *table[topology.NodeID, refGradient], snapshot bool) {
	t.Helper()
	now := n.now()
	if int(st.grads.n) != ref.size() {
		t.Fatalf("step %d: %d gradients, reference %d", step, int(st.grads.n), ref.size())
	}
	var data, live []topology.NodeID
	var snap []trace.SnapshotGradient
	for _, e := range ref.es {
		g := st.grads.ref(e.key)
		if g == nil || g.kind != e.val.kind || g.expires != e.val.expires {
			t.Fatalf("step %d: gradient toward %d is %+v, reference %+v", step, e.key, g, e.val)
		}
		if e.val.kind == gradData {
			data = append(data, e.key)
			if e.val.expires > now {
				live = append(live, e.key)
			}
		}
		if e.val.expires > now {
			snap = append(snap, trace.SnapshotGradient{Nbr: e.key, Data: e.val.kind == gradData, Expires: e.val.expires})
		}
	}
	if !slices.Equal(st.grads.data, data) {
		t.Fatalf("step %d: data list %v, reference %v", step, st.grads.data, data)
	}
	if got := n.dataGradients(st); !slices.Equal(got, live) {
		t.Fatalf("step %d: dataGradients %v, reference %v", step, got, live)
	}
	if got := n.hasDataGradient(st); got != (len(live) > 0) {
		t.Fatalf("step %d: hasDataGradient %v with live data gradients %v", step, got, live)
	}
	if snapshot {
		recs := rt.Snapshot()
		if len(recs) != 1 || !reflect.DeepEqual(recs[0].Gradients, snap) {
			t.Fatalf("step %d: snapshot %+v, reference gradients %+v", step, recs, snap)
		}
	}
}

// TestGradTableMatchesSortedTable drives a node's gradient table and the
// sorted table it replaced through the same seeded script; see
// driveGradTable.
func TestGradTableMatchesSortedTable(t *testing.T) {
	if slots, degrades := driveGradTable(t, randomScript(3, 20000)); slots <= 16 || degrades == 0 {
		t.Fatalf("table grew to %d slots with %d degrades, want growth past 16 and a degrade", slots, degrades)
	}
}

func FuzzGradTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 1, 0, 5, 0, 80, 0, 1, 0, 7, 0, 0, 0, 1, 0})
	f.Add([]byte{3, 2, 0, 4, 2, 0, 3, 2, 0, 5, 0, 255, 7, 0, 0, 0, 2, 0})
	f.Add(randomScript(4, 300))
	f.Fuzz(func(t *testing.T, ops []byte) {
		driveGradTable(t, ops[:min(len(ops), maxScript)])
	})
}

// putGradient installs a gradient directly, for fixtures.
func putGradient(st *interestState, nbr topology.NodeID, kind gradKind, expires time.Duration) {
	g, _ := st.grads.getOrInsert(nbr, 0)
	g.kind, g.expires = kind, expires
	st.grads.setData(nbr, kind == gradData)
}

// gradKeys returns t's neighbors in ascending order.
func gradKeys(t *gradTable) []topology.NodeID {
	var out []topology.NodeID
	for _, s := range t.slots {
		if s.nbr != 0 {
			out = append(out, topology.NodeID(s.nbr-1))
		}
	}
	slices.Sort(out)
	return out
}
