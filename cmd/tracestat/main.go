// Command tracestat summarizes an NDJSON protocol trace written by
// wsnsim -trace-out (or dumped by the flight recorder): traffic totals by
// operation and message kind, loss broken down by reason, the busiest nodes,
// delivery-lineage latency percentiles and hop depths, and the
// aggregation-tree edge set reconstructed from the reinforcement stream.
//
// Examples:
//
//	wsnsim -scheme greedy -loss 0.1 -trace-out run.ndjson
//	tracestat run.ndjson
//	tracestat -top 20 -edges run.ndjson
//	tracestat -json run.ndjson | jq .delivery
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/msg"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
}

// kindRow accumulates per-message-kind traffic.
type kindRow struct {
	sends, recvs, drops int
}

// edge is one directed aggregation-tree link: data flows from -> to.
type edge struct {
	from, to topology.NodeID
}

// traceStats is everything one pass over the trace accumulates.
type traceStats struct {
	events, snapshots   int
	sends, recvs, drops int
	repairs             int
	kinds               map[msg.Kind]*kindRow
	dropReasons         map[trace.DropReason]int
	nodeTraffic         map[topology.NodeID]int
	// Delivery lineage (OpDeliver events): per-delivery end-to-end delays
	// in seconds, a hop-count histogram, and the widest aggregation fan-in.
	delivers int
	delays   []float64
	hopHist  map[int]int
	hopSum   int
	maxHops  int
	maxFanIn int
	// trees maps interest -> live edge set. A received reinforcement at
	// node n from downstream neighbor p creates the data link n -> p; a
	// received negative reinforcement tears it down again, so the final
	// set is the tree standing when the trace ended.
	trees map[msg.InterestID]map[edge]bool
	// firstAt/lastAt bound the trace's virtual-time span.
	firstAt, lastAt int64
}

func newStats() *traceStats {
	return &traceStats{
		kinds:       make(map[msg.Kind]*kindRow),
		dropReasons: make(map[trace.DropReason]int),
		nodeTraffic: make(map[topology.NodeID]int),
		trees:       make(map[msg.InterestID]map[edge]bool),
		hopHist:     make(map[int]int),
	}
}

func (s *traceStats) kind(k msg.Kind) *kindRow {
	r := s.kinds[k]
	if r == nil {
		r = &kindRow{}
		s.kinds[k] = r
	}
	return r
}

func (s *traceStats) addEvent(e trace.Event) {
	s.events++
	if s.events == 1 || int64(e.At) < s.firstAt {
		s.firstAt = int64(e.At)
	}
	if int64(e.At) > s.lastAt {
		s.lastAt = int64(e.At)
	}
	s.nodeTraffic[e.Node]++
	switch e.Op {
	case trace.OpSend:
		s.sends++
		s.kind(e.Kind).sends++
	case trace.OpReceive:
		s.recvs++
		s.kind(e.Kind).recvs++
		switch e.Kind {
		case msg.KindReinforce:
			t := s.trees[e.Interest]
			if t == nil {
				t = make(map[edge]bool)
				s.trees[e.Interest] = t
			}
			t[edge{from: e.Node, to: e.Peer}] = true
		case msg.KindNegReinforce:
			delete(s.trees[e.Interest], edge{from: e.Node, to: e.Peer})
		}
	case trace.OpDrop:
		s.drops++
		s.kind(e.Kind).drops++
		s.dropReasons[e.Reason]++
	case trace.OpRepair:
		s.repairs++
	case trace.OpDeliver:
		s.delivers++
		s.delays = append(s.delays, e.Delay.Seconds())
		s.hopHist[e.Hops]++
		s.hopSum += e.Hops
		if e.Hops > s.maxHops {
			s.maxHops = e.Hops
		}
		if e.FanIn > s.maxFanIn {
			s.maxFanIn = e.FanIn
		}
	}
}

// delivery summarizes the delivery lineage once for both the text and the
// -json report: latency percentiles by the nearest-rank rule wsnsim uses,
// hop depths ascending. It is nil when the trace holds no deliveries.
func (s *traceStats) delivery() *jsonDelivery {
	if s.delivers == 0 {
		return nil
	}
	sorted := append([]float64(nil), s.delays...)
	sort.Float64s(sorted)
	d := &jsonDelivery{
		Count:    s.delivers,
		DelayP50: stats.NearestRank(sorted, 0.50),
		DelayP95: stats.NearestRank(sorted, 0.95),
		DelayP99: stats.NearestRank(sorted, 0.99),
		MeanHops: float64(s.hopSum) / float64(s.delivers),
		MaxHops:  s.maxHops,
		MaxFanIn: s.maxFanIn,
	}
	hops := make([]int, 0, len(s.hopHist))
	for h := range s.hopHist {
		hops = append(hops, h)
	}
	sort.Ints(hops)
	for _, h := range hops {
		d.HopHist = append(d.HopHist, jsonHopBucket{Hops: h, Count: s.hopHist[h]})
	}
	return d
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	var (
		top    = fs.Int("top", 10, "how many of the busiest nodes to list")
		edges  = fs.Bool("edges", false, "print the reconstructed tree edge lists")
		asJSON = fs.Bool("json", false, "emit one machine-readable JSON summary per trace instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: tracestat [-top N] [-edges] [-json] trace.ndjson...")
	}

	for _, path := range fs.Args() {
		s, err := scan(path)
		if err != nil {
			return err
		}
		if s.events == 0 && s.snapshots == 0 {
			return fmt.Errorf("%s: no trace records (empty or not an NDJSON trace)", path)
		}
		if *asJSON {
			if err := reportJSON(out, path, s, *top); err != nil {
				return err
			}
			continue
		}
		if err := report(out, path, s, *top, *edges); err != nil {
			return err
		}
	}
	return nil
}

// JSON summary shapes (-json mode). All delays are seconds.
type jsonKindRow struct {
	Kind  string `json:"kind"`
	Sends int    `json:"sends"`
	Recvs int    `json:"recvs"`
	Drops int    `json:"drops"`
}

type jsonHopBucket struct {
	Hops  int `json:"hops"`
	Count int `json:"count"`
}

// jsonDelivery is the delivery-lineage section of both reports (text and
// -json).
type jsonDelivery struct {
	Count    int             `json:"count"`
	DelayP50 float64         `json:"delay_p50_s"`
	DelayP95 float64         `json:"delay_p95_s"`
	DelayP99 float64         `json:"delay_p99_s"`
	MeanHops float64         `json:"mean_hops"`
	MaxHops  int             `json:"max_hops"`
	MaxFanIn int             `json:"max_fan_in"`
	HopHist  []jsonHopBucket `json:"hop_histogram,omitempty"`
}

type jsonNode struct {
	Node   topology.NodeID `json:"node"`
	Events int             `json:"events"`
}

type jsonTree struct {
	Interest msg.InterestID `json:"interest"`
	Edges    int            `json:"edges"`
}

type jsonSummary struct {
	Path        string         `json:"path"`
	Events      int            `json:"events"`
	Snapshots   int            `json:"snapshots"`
	SpanSeconds float64        `json:"span_seconds"`
	Sends       int            `json:"sends"`
	Recvs       int            `json:"recvs"`
	Drops       int            `json:"drops"`
	Repairs     int            `json:"repairs"`
	Kinds       []jsonKindRow  `json:"kinds,omitempty"`
	DropReasons map[string]int `json:"drop_reasons,omitempty"`
	Busiest     []jsonNode     `json:"busiest_nodes,omitempty"`
	Trees       []jsonTree     `json:"trees,omitempty"`
	Delivery    *jsonDelivery  `json:"delivery,omitempty"`
}

func reportJSON(w io.Writer, path string, s *traceStats, top int) error {
	sum := jsonSummary{
		Path:        path,
		Events:      s.events,
		Snapshots:   s.snapshots,
		SpanSeconds: float64(s.lastAt-s.firstAt) / 1e9,
		Sends:       s.sends,
		Recvs:       s.recvs,
		Drops:       s.drops,
		Repairs:     s.repairs,
	}
	for _, k := range sortedKinds(s) {
		r := s.kinds[k]
		sum.Kinds = append(sum.Kinds, jsonKindRow{
			Kind: k.String(), Sends: r.sends, Recvs: r.recvs, Drops: r.drops,
		})
	}
	if len(s.dropReasons) > 0 {
		sum.DropReasons = make(map[string]int, len(s.dropReasons))
		for r, n := range s.dropReasons {
			sum.DropReasons[r.String()] = n
		}
	}
	for _, b := range busiestNodes(s, top) {
		sum.Busiest = append(sum.Busiest, jsonNode{Node: b.node, Events: b.n})
	}
	for _, iid := range sortedInterests(s) {
		sum.Trees = append(sum.Trees, jsonTree{Interest: iid, Edges: len(s.trees[iid])})
	}
	sum.Delivery = s.delivery()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}

func scan(path string) (*traceStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := newStats()
	d := trace.NewDecoder(f)
	for {
		rec, err := d.Next()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.IsSnapshot {
			s.snapshots++
			continue
		}
		s.addEvent(rec.Event)
	}
}

// sortedKinds returns the message kinds seen, ascending.
func sortedKinds(s *traceStats) []msg.Kind {
	kinds := make([]msg.Kind, 0, len(s.kinds))
	for k := range s.kinds {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// nt pairs a node with its event count for the busiest-node ranking.
type nt struct {
	node topology.NodeID
	n    int
}

// busiestNodes returns up to top nodes by event count, busiest first.
func busiestNodes(s *traceStats, top int) []nt {
	if top <= 0 {
		return nil
	}
	busy := make([]nt, 0, len(s.nodeTraffic))
	for id, n := range s.nodeTraffic {
		busy = append(busy, nt{id, n})
	}
	sort.Slice(busy, func(i, j int) bool {
		if busy[i].n != busy[j].n {
			return busy[i].n > busy[j].n
		}
		return busy[i].node < busy[j].node
	})
	if top > len(busy) {
		top = len(busy)
	}
	return busy[:top]
}

// sortedInterests returns the interest IDs with reconstructed trees,
// ascending.
func sortedInterests(s *traceStats) []msg.InterestID {
	iids := make([]msg.InterestID, 0, len(s.trees))
	for iid := range s.trees {
		iids = append(iids, iid)
	}
	sort.Slice(iids, func(i, j int) bool { return iids[i] < iids[j] })
	return iids
}

func report(w io.Writer, path string, s *traceStats, top int, edges bool) error {
	span := float64(s.lastAt-s.firstAt) / 1e9
	fmt.Fprintf(w, "== %s ==\n", path)
	fmt.Fprintf(w, "%d events over %.1f virtual seconds, %d snapshots\n",
		s.events, span, s.snapshots)
	fmt.Fprintf(w, "sends %d, receives %d, drops %d", s.sends, s.recvs, s.drops)
	if s.repairs > 0 {
		fmt.Fprintf(w, ", repairs %d", s.repairs)
	}
	fmt.Fprint(w, "\n\n")

	fmt.Fprintf(w, "%-14s %10s %10s %10s\n", "kind", "sends", "recvs", "drops")
	for _, k := range sortedKinds(s) {
		r := s.kinds[k]
		fmt.Fprintf(w, "%-14s %10d %10d %10d\n", k, r.sends, r.recvs, r.drops)
	}

	if d := s.delivery(); d != nil {
		fmt.Fprintf(w, "\ndeliveries: %d samples\n", d.Count)
		fmt.Fprintf(w, "  latency      p50 %.3fs  p95 %.3fs  p99 %.3fs\n",
			d.DelayP50, d.DelayP95, d.DelayP99)
		fmt.Fprintf(w, "  tree depth   %.1f hops mean, %d max (fan-in up to %d)\n",
			d.MeanHops, d.MaxHops, d.MaxFanIn)
		for _, b := range d.HopHist {
			fmt.Fprintf(w, "  %2d hops      %10d\n", b.Hops, b.Count)
		}
	}

	if len(s.dropReasons) > 0 {
		fmt.Fprintf(w, "\ndrops by reason:\n")
		reasons := make([]trace.DropReason, 0, len(s.dropReasons))
		for r := range s.dropReasons {
			reasons = append(reasons, r)
		}
		sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
		for _, r := range reasons {
			fmt.Fprintf(w, "  %-14s %10d\n", r, s.dropReasons[r])
		}
	}

	if busy := busiestNodes(s, top); len(busy) > 0 {
		fmt.Fprintf(w, "\nbusiest %d of %d nodes (events touching the node):\n",
			len(busy), len(s.nodeTraffic))
		for _, b := range busy {
			fmt.Fprintf(w, "  node %-5d %10d\n", b.node, b.n)
		}
	}

	for _, iid := range sortedInterests(s) {
		t := s.trees[iid]
		fmt.Fprintf(w, "\ninterest %d: %d aggregation-tree edges standing at trace end\n",
			iid, len(t))
		if !edges {
			continue
		}
		list := make([]edge, 0, len(t))
		for e := range t {
			list = append(list, e)
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].from != list[j].from {
				return list[i].from < list[j].from
			}
			return list[i].to < list[j].to
		})
		for _, e := range list {
			fmt.Fprintf(w, "  %d -> %d\n", e.from, e.to)
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
