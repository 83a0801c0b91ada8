package diffusion

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topology"
)

// incCostStrategy is firstCopy plus incremental-cost emission, for
// exercising the inc-cost plumbing without importing package core.
type incCostStrategy struct{ firstCopyStrategy }

func (incCostStrategy) UsesIncrementalCost() bool { return true }

func TestIncCostSkeletonEntry(t *testing.T) {
	// Feed a node an inc-cost message for an unknown exploratory id: it
	// must create a skeleton entry, remember the cost, and fill the entry
	// in when the flood arrives later.
	k, net, f := testNet(t, 1, linePoints(3))
	rt, err := New(k, net, f, DefaultParams(), incCostStrategy{}, Roles{
		Sinks:   []topology.NodeID{2},
		Sources: []topology.NodeID{0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := rt.Node(1)
	st := n.state(0)

	n.onIncCost(2, msg.Message{
		Kind: msg.KindIncCost, Interest: 0, ID: 77, Origin: 2, C: 4, Bytes: msg.ControlBytes,
	})
	e := st.entries.get(77)
	if e == nil || !e.skeleton {
		t.Fatal("no skeleton entry created")
	}
	if !e.HasC || e.BestC != 4 || e.BestCNbr != 2 {
		t.Fatalf("cost not recorded: %+v", e.ExplorEntry)
	}
	if e.HasE {
		t.Fatal("skeleton claims flood knowledge")
	}

	// Now the flood copy arrives.
	n.onExploratory(0, msg.Message{
		Kind: msg.KindExploratory, Interest: 0, ID: 77, Origin: 0, E: 0,
		Items: []msg.Item{{Source: 0, Seq: 9}}, Bytes: msg.EventBytes,
	})
	if e.skeleton {
		t.Fatal("entry still a skeleton after the flood")
	}
	if e.Origin != 0 || e.Item.Seq != 9 {
		t.Fatalf("entry not filled in: %+v", e.ExplorEntry)
	}
	if !e.HasE || e.BestE != 1 {
		t.Fatalf("flood cost wrong: BestE=%d", e.BestE)
	}
}

func TestIncCostRefinementMonotone(t *testing.T) {
	// An on-tree node forwards min(C, E_local) and re-forwards only
	// improvements (§4.1: C may only decrease).
	k, net, f := testNet(t, 1, linePoints(4))
	rt, err := New(k, net, f, DefaultParams(), incCostStrategy{}, Roles{
		Sinks:   []topology.NodeID{3},
		Sources: []topology.NodeID{0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := rt.Node(1)
	st := n.state(0)
	// Give node 1 a data gradient toward 2 so it forwards inc-costs.
	n.setGradient(st, 2, gradData)
	// Local flood knowledge: E = 5 for entry 42.
	n.onExploratory(0, msg.Message{
		Kind: msg.KindExploratory, Interest: 0, ID: 42, Origin: 0, E: 4,
		Items: []msg.Item{{Source: 0, Seq: 1}}, Bytes: msg.EventBytes,
	})

	n.onIncCost(0, msg.Message{Kind: msg.KindIncCost, Interest: 0, ID: 42, Origin: 0, C: 9, Bytes: msg.ControlBytes})
	e := st.entries.get(42)
	if !e.hasFwdC || e.fwdC != 5 {
		t.Fatalf("forwarded C = %d, want min(9, E=5) = 5", e.fwdC)
	}
	before := rt.Sent()[msg.KindIncCost]

	// A worse inc-cost must not re-forward.
	n.onIncCost(0, msg.Message{Kind: msg.KindIncCost, Interest: 0, ID: 42, Origin: 0, C: 7, Bytes: msg.ControlBytes})
	if rt.Sent()[msg.KindIncCost] != before {
		t.Fatal("non-improving inc-cost re-forwarded")
	}
	// A better one must.
	n.onIncCost(0, msg.Message{Kind: msg.KindIncCost, Interest: 0, ID: 42, Origin: 0, C: 2, Bytes: msg.ControlBytes})
	if e.fwdC != 2 {
		t.Fatalf("improvement not forwarded: %d", e.fwdC)
	}
	if rt.Sent()[msg.KindIncCost] != before+1 {
		t.Fatal("improved inc-cost not sent")
	}
}

func TestNegCascadeRateLimit(t *testing.T) {
	k, net, f := testNet(t, 1, linePoints(4))
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{3},
		Sources: []topology.NodeID{0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := rt.Node(1)
	st := n.state(0)
	st.lastDataFrom.put(0, k.Now()) // recent upstream sender

	// Two data gradients; degrading one leaves the other: no cascade.
	n.setGradient(st, 2, gradData)
	n.setGradient(st, 3, gradData)
	n.onNegReinforce(2, msg.Message{Kind: msg.KindNegReinforce, Interest: 0, Origin: 2, Bytes: msg.ControlBytes})
	if got := rt.Sent()[msg.KindNegReinforce]; got != 0 {
		t.Fatalf("cascade despite a surviving gradient: %d", got)
	}
	// Degrading the last gradient cascades to the recent sender.
	n.onNegReinforce(3, msg.Message{Kind: msg.KindNegReinforce, Interest: 0, Origin: 3, Bytes: msg.ControlBytes})
	if got := rt.Sent()[msg.KindNegReinforce]; got != 1 {
		t.Fatalf("no cascade after the last gradient: %d", got)
	}
	// An immediate repeat is rate-limited.
	n.setGradient(st, 2, gradData)
	n.onNegReinforce(2, msg.Message{Kind: msg.KindNegReinforce, Interest: 0, Origin: 2, Bytes: msg.ControlBytes})
	if got := rt.Sent()[msg.KindNegReinforce]; got != 1 {
		t.Fatalf("cascade not rate-limited: %d", got)
	}
	// A stale degrade (no data gradient toward sender) never cascades.
	n.onNegReinforce(2, msg.Message{Kind: msg.KindNegReinforce, Interest: 0, Origin: 2, Bytes: msg.ControlBytes})
	if got := rt.Sent()[msg.KindNegReinforce]; got != 1 {
		t.Fatalf("stale degrade cascaded: %d", got)
	}
}

func TestPrunePassEvictsStaleState(t *testing.T) {
	for _, repair := range []bool{false, true} {
		k, net, f := testNet(t, 1, linePoints(3))
		p := DefaultParams()
		p.Repair.Enabled = repair
		rt, err := New(k, net, f, p, firstCopyStrategy{}, Roles{
			Sinks:   []topology.NodeID{2},
			Sources: []topology.NodeID{0},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := rt.Node(1)
		st := n.state(0)
		st.dataCache[msg.ItemKey{Source: 0, Seq: 1}] = 0
		st.entries.put(5, &entryState{created: 0, hasFwdC: true, fwdC: 3})
		st.grads.put(0, gradient{kind: gradExploratory, expires: time.Second})
		st.lastDataFrom.put(0, 0)
		st.srcSeen.put(0, 0)

		// One survivor and one victim at each table's cutoff, taken at the
		// prune instant now, far past every TTL of the state above.
		now := 10 * exploratoryPeriod
		seen := now - 4*p.NegReinforceWindow
		st.entries.put(6, &entryState{created: now - EntryTTL})
		st.entries.put(7, &entryState{created: now - EntryTTL - 1})
		st.grads.put(1, gradient{kind: gradData, expires: now})
		st.grads.put(2, gradient{kind: gradData, expires: now + 1})
		st.lastDataFrom.put(1, seen)
		st.lastDataFrom.put(2, seen-1)
		st.srcSeen.put(1, seen)
		st.srcSeen.put(2, seen-1)
		n.lq.observe(1, true, now-4*qualityTTL)
		n.lq.observe(2, true, now-4*qualityTTL-1)

		k.Schedule(now, func() { n.prunePass() })
		k.Run(now)

		if len(st.dataCache) != 0 {
			t.Fatalf("repair %v: stale duplicate cache survived prune: %d items", repair, len(st.dataCache))
		}
		lq := []topology.NodeID{1, 2} // pruned only by the repair layer
		if repair {
			lq = []topology.NodeID{1}
		}
		for _, c := range []struct {
			table     string
			got, want any
		}{
			{"entries", tableKeys(&st.entries), []msg.MsgID{6}},
			{"grads", tableKeys(&st.grads), []topology.NodeID{2}},
			{"lastDataFrom", tableKeys(&st.lastDataFrom), []topology.NodeID{1}},
			{"srcSeen", tableKeys(&st.srcSeen), []topology.NodeID{1}},
			{"link quality", tableKeys(&n.lq.table), lq},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("repair %v: prune kept %s %v, want %v", repair, c.table, c.got, c.want)
			}
		}
	}
}

func TestEarlyFlushWhenAllSourcesPresent(t *testing.T) {
	// An aggregation point holding items from every active source flushes
	// without waiting out Ta, and the Ta timer that early flush overtook
	// fires as a no-op rather than cutting the next window short.
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 0, Y: 40}, {X: 25, Y: 20}, {X: 55, Y: 20},
	}
	k, net, f := testNet(t, 2, pts)
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{3},
		Sources: []topology.NodeID{0, 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := rt.Node(2)
	st := n.state(0)
	now := k.Now()
	st.srcSeen.put(0, now)
	st.srcSeen.put(1, now)
	n.setGradient(st, 3, gradData)

	item0 := msg.Item{Source: 0, Seq: 1}
	item1 := msg.Item{Source: 1, Seq: 1}
	n.onData(0, msg.Message{Kind: msg.KindData, Interest: 0, Origin: 0,
		Items: []msg.Item{item0}, W: 1, Bytes: msg.EventBytes})
	if st.pending.rec == nil {
		t.Fatal("first contribution did not arm the flush timer")
	}
	if rt.Sent()[msg.KindData] != 0 {
		t.Fatal("flushed with only one source present")
	}
	n.onData(1, msg.Message{Kind: msg.KindData, Interest: 0, Origin: 1,
		Items: []msg.Item{item1}, W: 1, Bytes: msg.EventBytes})
	// Both active sources present: flush fires immediately, not at Ta.
	if rt.Sent()[msg.KindData] != 1 {
		t.Fatalf("early flush did not fire: sent=%d", rt.Sent()[msg.KindData])
	}

	// Half a window later a second item from source 0 arms a fresh Ta
	// flush. The overtaken timer fires at Ta and must leave it pending.
	ta := DefaultParams().AggregationDelay
	k.Run(now + ta/2)
	n.onData(0, msg.Message{Kind: msg.KindData, Interest: 0, Origin: 0,
		Items: []msg.Item{{Source: 0, Seq: 2}}, W: 1, Bytes: msg.EventBytes})
	k.Run(now + ta)
	if sent, pending := rt.Sent()[msg.KindData], len(st.pending.contribs); sent != 1 || pending != 1 {
		t.Fatalf("stale flush timer flushed early: sent=%d pending=%d", sent, pending)
	}
	k.Run(now + ta + ta/2)
	if sent := rt.Sent()[msg.KindData]; sent != 2 {
		t.Fatalf("fresh flush timer did not fire at its Ta: sent=%d", sent)
	}
}

func TestPassThroughForwardsImmediately(t *testing.T) {
	// A node seeing only one source is not an aggregation point and must
	// not pay the Ta delay.
	k, net, f := testNet(t, 2, linePoints(3))
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{2},
		Sources: []topology.NodeID{0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := rt.Node(1)
	st := n.state(0)
	n.setGradient(st, 2, gradData)
	n.onData(0, msg.Message{Kind: msg.KindData, Interest: 0, Origin: 0,
		Items: []msg.Item{{Source: 0, Seq: 1}}, W: 1, Bytes: msg.EventBytes})
	// The zero-delay flush is scheduled at the current instant; one kernel
	// step fires it.
	k.Run(k.Now() + time.Millisecond)
	if rt.Sent()[msg.KindData] != 1 {
		t.Fatalf("pass-through node delayed the data: sent=%d", rt.Sent()[msg.KindData])
	}
}

// Property: random small workloads never deliver an item that was not
// generated, never deliver duplicates, and never produce negative delays.
func TestPropertyRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := rng.Intn(40) + 15
		f, err := topology.Generate(topology.Config{
			Area: geom.Square(0, 0, 150), Nodes: nodes, Range: 45,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		sink := topology.NodeID(rng.Intn(nodes))
		var sources []topology.NodeID
		for len(sources) < 2 {
			s := topology.NodeID(rng.Intn(nodes))
			if s != sink && (len(sources) == 0 || s != sources[0]) {
				sources = append(sources, s)
			}
		}
		k := sim.NewKernel(seed)
		net := mac.New(k, f, mac.Params{})
		rec := newRecorder()
		rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{},
			Roles{Sinks: []topology.NodeID{sink}, Sources: sources}, rec)
		if err != nil {
			t.Fatal(err)
		}
		rt.Start()
		k.Run(20 * time.Second)

		generated := map[msg.ItemKey]bool{}
		for _, it := range rec.generated {
			generated[it.Key()] = true
		}
		seen := map[msg.ItemKey]bool{}
		for _, it := range rec.delivered[sink] {
			if !generated[it.Key()] {
				t.Fatalf("seed %d: delivered unknown item %+v", seed, it.Key())
			}
			if seen[it.Key()] {
				t.Fatalf("seed %d: duplicate delivery %+v", seed, it.Key())
			}
			seen[it.Key()] = true
		}
		for _, d := range rec.delays {
			if d < 0 {
				t.Fatalf("seed %d: negative delay %v", seed, d)
			}
		}
	}
}

// Two sinks, one source: per-interest state must stay isolated — gradients
// for one interest never leak into the other — while the source serves
// both.
func TestMultiInterestIsolation(t *testing.T) {
	//  sink0(0) - relay(1) - source(2) - relay(3) - sink1(4)
	k, net, f := testNet(t, 9, linePoints(5))
	rec := newRecorder()
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{0, 4},
		Sources: []topology.NodeID{2},
	}, rec)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	k.Run(20 * time.Second)

	if len(rec.delivered[0]) == 0 || len(rec.delivered[4]) == 0 {
		t.Fatalf("deliveries: sink0=%d sink1=%d", len(rec.delivered[0]), len(rec.delivered[4]))
	}
	// Interest 0 belongs to sink 0: the source's gradients for it point
	// left (node 1); for interest 1 they point right (node 3).
	g0 := rt.DataGradients(2, 0)
	g1 := rt.DataGradients(2, 1)
	if len(g0) != 1 || g0[0] != 1 {
		t.Fatalf("interest 0 gradients at source = %v, want [1]", g0)
	}
	if len(g1) != 1 || g1[0] != 3 {
		t.Fatalf("interest 1 gradients at source = %v, want [3]", g1)
	}
}

// Interest floods carry a round number; stale rounds must not be
// re-flooded, fresh ones must.
func TestInterestRoundDedup(t *testing.T) {
	k, net, f := testNet(t, 1, linePoints(3))
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{2},
		Sources: []topology.NodeID{0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := rt.Node(1)
	mk := func(round int) msg.Message {
		return msg.Message{Kind: msg.KindInterest, Interest: 0, ID: msg.MsgID(round),
			Origin: 2, Bytes: msg.ControlBytes}
	}
	n.onInterest(2, mk(1))
	n.onInterest(0, mk(1)) // same round from the other side: no re-flood
	n.onInterest(2, mk(2)) // fresh round: re-flood
	k.Run(time.Second)     // let the jittered rebroadcasts fire
	// Node 1 forwards rounds 1 and 2 once each (2 sends); node 0 hears both
	// rounds from node 1 and forwards each once more (2 sends); the sink
	// ignores echoes of its own interest. Total 4 — a duplicate re-flood of
	// round 1 at node 1 would make it 5.
	if got := rt.Sent()[msg.KindInterest]; got != 4 {
		t.Fatalf("interest rebroadcasts = %d, want 4 (each round forwarded once per node)", got)
	}
	// Gradients toward both senders exist regardless of dedup.
	st := n.interests.get(0)
	if st.grads.ref(2) == nil || st.grads.ref(0) == nil {
		t.Fatal("interest did not set gradients toward both senders")
	}
}

// A sink must ignore echoes of its own interest flood.
func TestSinkIgnoresOwnInterestEcho(t *testing.T) {
	k, net, f := testNet(t, 1, linePoints(3))
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{2},
		Sources: []topology.NodeID{0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := rt.Node(2)
	sink.onInterest(1, msg.Message{Kind: msg.KindInterest, Interest: 0, ID: 1,
		Origin: 2, Bytes: msg.ControlBytes})
	if st := sink.interests.get(0); st != nil && st.grads.size() > 0 {
		t.Fatal("sink set a gradient from its own interest echo")
	}
	k.Run(time.Millisecond)
}
