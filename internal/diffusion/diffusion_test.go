package diffusion

import (
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topology"
)

// firstCopyStrategy is a minimal strategy for substrate tests: reinforce the
// first deliverer immediately, no incremental costs, truncate
// nothing-new senders. It mirrors the opportunistic scheme without importing
// it (that package depends on this one).
type firstCopyStrategy struct{}

func (firstCopyStrategy) SinkReinforceDelay(Params) time.Duration { return 0 }
func (firstCopyStrategy) UsesIncrementalCost() bool               { return false }

func (firstCopyStrategy) ChooseUpstream(e *ExplorEntry, exclude map[topology.NodeID]bool) (topology.NodeID, bool) {
	c, ok := e.FirstCopy(exclude)
	return c.Nbr, ok
}

func (firstCopyStrategy) Truncate(window []ReceivedAgg, _ *TruncateWorkspace) []topology.NodeID {
	fresh := map[topology.NodeID]bool{}
	seen := map[topology.NodeID]bool{}
	for _, a := range window {
		seen[a.From] = true
		if len(a.NewItems) > 0 {
			fresh[a.From] = true
		}
	}
	ids := make([]topology.NodeID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []topology.NodeID
	for _, id := range ids {
		if !fresh[id] {
			out = append(out, id)
		}
	}
	return out
}

// recorder captures observer callbacks.
type recorder struct {
	generated []msg.Item
	delivered map[topology.NodeID][]msg.Item
	delays    []time.Duration
}

func newRecorder() *recorder {
	return &recorder{delivered: make(map[topology.NodeID][]msg.Item)}
}

func (r *recorder) Generated(src topology.NodeID, it msg.Item) {
	r.generated = append(r.generated, it)
}

func (r *recorder) Delivered(sink topology.NodeID, it msg.Item, d time.Duration) {
	r.delivered[sink] = append(r.delivered[sink], it)
	r.delays = append(r.delays, d)
}

// testNet builds a kernel, MAC and field over explicit positions.
func testNet(t *testing.T, seed int64, pts []geom.Point) (*sim.Kernel, *mac.Network, *topology.Field) {
	t.Helper()
	f, err := topology.FromPositions(geom.Square(0, 0, 1000), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(seed)
	n := mac.New(k, f, mac.Params{})
	return k, n, f
}

// line topology: source(0) - relays - sink(last).
func linePoints(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 30, Y: 0}
	}
	return pts
}

func startLine(t *testing.T, hops int) (*sim.Kernel, *Runtime, *recorder) {
	t.Helper()
	k, net, f := testNet(t, 1, linePoints(hops+1))
	rec := newRecorder()
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{topology.NodeID(hops)},
		Sources: []topology.NodeID{0},
	}, rec)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	return k, rt, rec
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name string
		f    func(*Params)
	}{
		{"zero aggregation delay", func(p *Params) { p.AggregationDelay = 0 }},
		{"window below aggregation delay", func(p *Params) { p.NegReinforceWindow = p.AggregationDelay - 1 }},
		{"negative reinforce delay", func(p *Params) { p.ReinforceDelay = -1 }},
		{"cache TTL below window", func(p *Params) { p.NegReinforceWindow = DataCacheTTL }},
		{"nil aggregation", func(p *Params) { p.Agg = nil }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			p := DefaultParams()
			m.f(&p)
			if err := p.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestRolesValidate(t *testing.T) {
	tests := []struct {
		name  string
		roles Roles
	}{
		{"no sinks", Roles{Sources: []topology.NodeID{0}}},
		{"no sources", Roles{Sinks: []topology.NodeID{0}}},
		{"sink out of range", Roles{Sinks: []topology.NodeID{10}, Sources: []topology.NodeID{0}}},
		{"source out of range", Roles{Sinks: []topology.NodeID{0}, Sources: []topology.NodeID{-1}}},
		{"sink twice", Roles{Sinks: []topology.NodeID{0, 0}, Sources: []topology.NodeID{1}}},
		{"sink and source overlap", Roles{Sinks: []topology.NodeID{0}, Sources: []topology.NodeID{0}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.roles.Validate(5); err == nil {
				t.Fatal("expected error")
			}
		})
	}
	if err := (Roles{Sinks: []topology.NodeID{0}, Sources: []topology.NodeID{1, 2}}).Validate(5); err != nil {
		t.Fatalf("valid roles rejected: %v", err)
	}
}

func TestEndToEndDelivery(t *testing.T) {
	k, _, rec := startLine(t, 5)
	k.Run(20 * time.Second)
	if len(rec.generated) == 0 {
		t.Fatal("source generated nothing")
	}
	if len(rec.delivered[5]) == 0 {
		t.Fatal("sink received nothing")
	}
	// Steady-state delivery should be near-complete on a clean line.
	ratio := float64(len(rec.delivered[5])) / float64(len(rec.generated))
	if ratio < 0.8 {
		t.Fatalf("delivery ratio %.2f too low on a clean 5-hop line", ratio)
	}
	for _, d := range rec.delays {
		if d < 0 {
			t.Fatal("negative delay")
		}
		if d > 5*time.Second {
			t.Fatalf("delay %v implausible on a 5-hop line", d)
		}
	}
}

func TestNoDuplicateDeliveries(t *testing.T) {
	k, _, rec := startLine(t, 4)
	k.Run(15 * time.Second)
	seen := map[msg.ItemKey]bool{}
	for _, it := range rec.delivered[4] {
		if seen[it.Key()] {
			t.Fatalf("item %+v delivered twice", it.Key())
		}
		seen[it.Key()] = true
	}
}

func TestReinforcementCreatesDataGradients(t *testing.T) {
	k, rt, _ := startLine(t, 3)
	k.Run(10 * time.Second)
	// Every node between source and sink must have a data gradient toward
	// its downstream neighbor.
	for i := 0; i < 3; i++ {
		n := rt.Node(topology.NodeID(i))
		st := n.interests.get(0)
		if st == nil {
			t.Fatalf("node %d has no interest state", i)
		}
		grads := n.dataGradients(st)
		if len(grads) != 1 || grads[0] != topology.NodeID(i+1) {
			t.Fatalf("node %d data gradients = %v, want [%d]", i, grads, i+1)
		}
	}
}

func TestSourceDoesNotSendBeforeReinforcement(t *testing.T) {
	// With a huge reinforce delay strategy the source would have no data
	// gradient; with firstCopy (immediate) we instead verify the transient:
	// before any interest arrives, nothing is generated.
	k, _, rec := startLine(t, 3)
	k.Run(50 * time.Millisecond) // before interest flood could round-trip
	if len(rec.generated) != 0 {
		t.Fatalf("source generated %d items before activation", len(rec.generated))
	}
}

func TestAggregationMergesTwoSources(t *testing.T) {
	// Y topology: sources 0 and 1 both 30m from relay 2; sink 3 beyond.
	//   0
	//     \
	//      2 --- 3 (sink)
	//     /
	//   1
	pts := []geom.Point{
		{X: 0, Y: 0},
		{X: 0, Y: 40},
		{X: 25, Y: 20},
		{X: 55, Y: 20},
	}
	k, net, f := testNet(t, 3, pts)
	rec := newRecorder()
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{3},
		Sources: []topology.NodeID{0, 1},
	}, rec)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	k.Run(30 * time.Second)

	if len(rec.delivered[3]) == 0 {
		t.Fatal("nothing delivered")
	}
	// The relay merges both sources: its data sends should be roughly one
	// aggregate per data period, i.e. clearly fewer than one per item.
	sent := rt.Sent()
	items := len(rec.delivered[3])
	if sent[msg.KindData] == 0 {
		t.Fatal("no data messages sent")
	}
	// Total data sends: 2 sources (1 hop each) + relay (aggregated). If no
	// aggregation happened this would be >= 3 per pair of items (1.5 per
	// item). With aggregation it is ~1.5 sends per 2 items (0.75/item).
	perItem := float64(sent[msg.KindData]) / float64(items)
	if perItem > 1.8 {
		t.Fatalf("%.2f data sends per delivered item suggests no aggregation", perItem)
	}
	// And the relay must be an aggregation point.
	relay := rt.Node(2)
	if st := relay.interests.get(0); st == nil || !relay.isAggregationPoint(st) {
		t.Fatal("relay is not an aggregation point despite merging two sources")
	}
}

func TestAggregationDelayBounded(t *testing.T) {
	// On the Y topology, delays must stay within a few aggregation windows.
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 0, Y: 40}, {X: 25, Y: 20}, {X: 55, Y: 20},
	}
	k, net, f := testNet(t, 4, pts)
	rec := newRecorder()
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{3},
		Sources: []topology.NodeID{0, 1},
	}, rec)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	k.Run(20 * time.Second)
	for _, d := range rec.delays {
		if d > 3*time.Second {
			t.Fatalf("delay %v exceeds a few aggregation windows", d)
		}
	}
}

func TestFailureRecovery(t *testing.T) {
	// Line with a parallel relay: source 0, relays 1 (on axis) and 4
	// (offset), sink 3. Kill relay 1 mid-run; repair must reroute via 4.
	pts := []geom.Point{
		{X: 0, Y: 0},   // 0 source
		{X: 30, Y: 0},  // 1 relay A
		{X: 60, Y: 0},  // 2 relay B
		{X: 90, Y: 0},  // 3 sink
		{X: 30, Y: 20}, // 4 relay A'
	}
	k, net, f := testNet(t, 5, pts)
	rec := newRecorder()
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{3},
		Sources: []topology.NodeID{0},
	}, rec)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	k.Schedule(10*time.Second, func() { net.SetOn(1, false) })
	k.Run(40 * time.Second)

	// Count deliveries generated after the failure + repair allowance.
	var late int
	for _, it := range rec.delivered[3] {
		if time.Duration(it.GenTime) > 15*time.Second {
			late++
		}
	}
	if late < 20 {
		t.Fatalf("only %d post-failure deliveries; repair did not reroute", late)
	}
}

func TestTruncationPrunesRedundantBranch(t *testing.T) {
	// Diamond: source 0 -> {1, 2} -> 3 (sink). Both relays may end up
	// reinforced transiently; truncation must prune down to one.
	pts := []geom.Point{
		{X: 0, Y: 20},  // 0 source
		{X: 30, Y: 0},  // 1 relay
		{X: 30, Y: 40}, // 2 relay
		{X: 60, Y: 20}, // 3 sink
	}
	k, net, f := testNet(t, 6, pts)
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{3},
		Sources: []topology.NodeID{0},
	}, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	k.Run(30 * time.Second)

	src := rt.Node(0)
	st := src.interests.get(0)
	if st == nil {
		t.Fatal("source has no interest state")
	}
	if got := len(src.dataGradients(st)); got != 1 {
		t.Fatalf("source keeps %d data gradients, want 1 after truncation", got)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (map[msg.Kind]int, int) {
		k, net, f := testNet(t, 42, linePoints(6))
		rec := newRecorder()
		rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
			Sinks:   []topology.NodeID{5},
			Sources: []topology.NodeID{0},
		}, rec)
		if err != nil {
			t.Fatal(err)
		}
		rt.Start()
		k.Run(20 * time.Second)
		return rt.Sent(), len(rec.delivered[5])
	}
	s1, d1 := run()
	s2, d2 := run()
	if d1 != d2 {
		t.Fatalf("deliveries differ across identical runs: %d vs %d", d1, d2)
	}
	for k1, v1 := range s1 {
		if s2[k1] != v1 {
			t.Fatalf("sent[%v] differs: %d vs %d", k1, v1, s2[k1])
		}
	}
}

func TestStartTwicePanics(t *testing.T) {
	k, net, f := testNet(t, 1, linePoints(2))
	rt, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{1},
		Sources: []topology.NodeID{0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Start")
		}
	}()
	rt.Start()
}

func TestNewValidation(t *testing.T) {
	k, net, f := testNet(t, 1, linePoints(2))
	good := Roles{Sinks: []topology.NodeID{1}, Sources: []topology.NodeID{0}}
	if _, err := New(k, net, f, Params{}, firstCopyStrategy{}, good, nil); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := New(k, net, f, DefaultParams(), nil, good, nil); err == nil {
		t.Fatal("nil strategy accepted")
	}
	if _, err := New(k, net, f, DefaultParams(), firstCopyStrategy{}, Roles{}, nil); err == nil {
		t.Fatal("empty roles accepted")
	}
}

func TestRecordCopy(t *testing.T) {
	e := &entryState{}
	e.recordCopy(5, 3, 100, 8)
	e.recordCopy(7, 2, 200, 8)
	e.recordCopy(5, 1, 300, 8)   // improves node 5's cost, keeps arrival order
	e.recordCopy(133, 4, 400, 8) // shares node 5's filter bit, but is a new neighbor
	e.recordCopy(133, 2, 500, 8) // improves node 133's cost

	if !e.HasE || e.BestE != 1 {
		t.Fatalf("BestE = %d (HasE=%v), want 1", e.BestE, e.HasE)
	}
	want := []Copy{{Nbr: 5, E: 1, Arrival: 100}, {Nbr: 7, E: 2, Arrival: 200}, {Nbr: 133, E: 2, Arrival: 400}}
	if !slices.Equal(e.Copies, want) {
		t.Fatalf("Copies = %+v, want %+v", e.Copies, want)
	}
}

// Copies past the inline buffer move once to a slice sized to the node's
// degree; a degree that later grows (mobility) still appends correctly.
func TestRecordCopyOverflowSizedToDegree(t *testing.T) {
	for _, degree := range []int{2, 37} {
		e := &entryState{}
		for i := 0; i < 40; i++ {
			e.recordCopy(topology.NodeID(i), i, time.Duration(i), degree)
			if i == len(e.copiesBuf) && degree > len(e.copiesBuf) && cap(e.Copies) != degree {
				t.Fatalf("degree %d: cap after overflow = %d, want %d", degree, cap(e.Copies), degree)
			}
		}
		if len(e.Copies) != 40 {
			t.Fatalf("degree %d: %d copies, want 40", degree, len(e.Copies))
		}
		for i, c := range e.Copies {
			if c.Nbr != topology.NodeID(i) || c.E != i || c.Arrival != time.Duration(i) {
				t.Fatalf("degree %d: copy %d = %+v", degree, i, c)
			}
		}
	}
}

func TestBestCopyAndFirstCopy(t *testing.T) {
	e := &ExplorEntry{Copies: []Copy{
		{Nbr: 1, E: 5, Arrival: 10},
		{Nbr: 2, E: 3, Arrival: 20},
		{Nbr: 3, E: 3, Arrival: 15},
	}}
	if c, ok := e.BestCopy(nil); !ok || c.Nbr != 3 {
		t.Fatalf("BestCopy = %+v, want nbr 3 (cost tie broken by arrival)", c)
	}
	if c, ok := e.FirstCopy(nil); !ok || c.Nbr != 1 {
		t.Fatalf("FirstCopy = %+v, want nbr 1", c)
	}
	excl := map[topology.NodeID]bool{3: true}
	if c, ok := e.BestCopy(excl); !ok || c.Nbr != 2 {
		t.Fatalf("BestCopy(excl 3) = %+v, want nbr 2", c)
	}
	excl = map[topology.NodeID]bool{1: true, 2: true, 3: true}
	if _, ok := e.BestCopy(excl); ok {
		t.Fatal("BestCopy should fail with all excluded")
	}
	if _, ok := e.FirstCopy(excl); ok {
		t.Fatal("FirstCopy should fail with all excluded")
	}
}

func TestGradientLifecycle(t *testing.T) {
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

	n.setGradient(st, 2, gradExploratory)
	if n.hasDataGradient(st) {
		t.Fatal("exploratory gradient counted as data")
	}
	n.setGradient(st, 2, gradData)
	if !n.hasDataGradient(st) {
		t.Fatal("data gradient not installed")
	}
	// Interest floods must not downgrade a data gradient.
	n.setGradient(st, 2, gradExploratory)
	if !n.hasDataGradient(st) {
		t.Fatal("interest flood downgraded a data gradient")
	}
	// Negative reinforcement degrades it.
	if !n.degradeGradient(st, 2) {
		t.Fatal("degrade reported no change")
	}
	if n.hasDataGradient(st) {
		t.Fatal("gradient still data after degrade")
	}
	if n.degradeGradient(st, 2) {
		t.Fatal("second degrade should report no change")
	}
}

func TestSentCountersSnapshot(t *testing.T) {
	k, rt, _ := startLine(t, 3)
	k.Run(10 * time.Second)
	s := rt.Sent()
	s[msg.KindData] = -999
	if rt.Sent()[msg.KindData] == -999 {
		t.Fatal("Sent returned shared map")
	}
	if rt.Sent()[msg.KindInterest] == 0 {
		t.Fatal("no interests counted")
	}
}
