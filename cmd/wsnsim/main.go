// Command wsnsim runs one packet-level sensor-network simulation and prints
// the paper's three metrics plus substrate diagnostics.
//
// Examples:
//
//	wsnsim -scheme greedy -nodes 350 -seed 3
//	wsnsim -scheme opportunistic -nodes 150 -failures
//	wsnsim -scheme greedy -sources 14 -agg linear -duration 120s
//	wsnsim -scheme greedy -nodes 80 -trace reinforce,negreinforce
//	wsnsim -scheme greedy -loss 0.1 -amnesia 10s -invariants
//	wsnsim -scheme opportunistic -partition 60s:100s -invariants
//	wsnsim -scheme greedy -mobility waypoint -speed 2 -repair -invariants
//	wsnsim -scheme greedy -join-frac 0.2 -join-window 80s -leave-every 20s
//	wsnsim -scheme greedy -telemetry
//	wsnsim -scheme greedy -loss 0.1 -trace-out run.ndjson -snapshot-every 20s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/agg"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wsnsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("wsnsim", flag.ContinueOnError)
	var (
		scheme    = fs.String("scheme", "greedy", "aggregation scheme: greedy, opportunistic, greedy-eventcover, flooding, omniscient")
		nodes     = fs.Int("nodes", 150, "number of sensor nodes (paper: 50..350)")
		seed      = fs.Int64("seed", 1, "random seed (one seed = one generated field)")
		sources   = fs.Int("sources", 5, "number of sources")
		sinks     = fs.Int("sinks", 1, "number of sinks")
		placement = fs.String("placement", "corner", "source placement: corner or random")
		aggName   = fs.String("agg", "perfect", "aggregation function: perfect, linear, packing, timestamp, outline")
		duration  = fs.Duration("duration", 160*time.Second, "simulated time")
		failures  = fs.Bool("failures", false, "enable the paper's node-failure dynamics (20% off / 30 s)")
		traceArg  = fs.String("trace", "", "comma-separated message kinds to trace (e.g. reinforce,inccost)")
		verbose   = fs.Bool("v", false, "print per-kind message counts and MAC statistics")
		fieldMap  = fs.Bool("map", false, "draw the field and the final aggregation tree as ASCII art")
		rtscts    = fs.Bool("rtscts", false, "enable the 802.11 RTS/CTS handshake for unicast data")
		repair    = fs.Bool("repair", false, "enable the self-healing layer: link-quality estimation, control retransmission, localized path repair")
		battery   = fs.Float64("battery", 0, "per-node battery budget in joules (0 = unlimited); depleted nodes die permanently")

		mobility     = fs.String("mobility", "", `mobility model: "waypoint" or "walk" ("" = static field)`)
		mobilityTick = fs.Duration("mobility-epoch", 0, "movement epoch (0 = model default, 1s)")
		speedMin     = fs.Float64("speed-min", 0, "waypoint leg-speed lower bound in m/s (0 = model default)")
		speed        = fs.Float64("speed", 0, "waypoint leg-speed upper bound in m/s (0 = model default)")
		pause        = fs.Duration("pause", -1, "waypoint pause at each destination (-1 = model default)")
		step         = fs.Float64("step", 0, "walk per-epoch step bound in meters (0 = model default)")
		joinFrac     = fs.Float64("join-frac", 0, "fraction of nodes absent at start that cold-join during -join-window")
		joinWindow   = fs.Duration("join-window", 0, "window over which cold joins are drawn (required with -join-frac)")
		leaveEvery   = fs.Duration("leave-every", 0, "mean interval between permanent departures (0 = off)")

		loss        = fs.Float64("loss", 0, "i.i.d. per-reception link-loss probability (chaos layer)")
		burst       = fs.Bool("burst", false, "bursty Gilbert-Elliott channel instead of i.i.d. loss")
		asymFrac    = fs.Float64("asym-frac", 0, "fraction of directed links made asymmetric")
		asymDrop    = fs.Float64("asym-drop", 0.5, "extra drop probability on asymmetric links")
		amnesia     = fs.Duration("amnesia", 0, "mean interval between crash-with-amnesia events (0 = off)")
		amnesiaDown = fs.Duration("amnesia-down", 2*time.Second, "downtime after each amnesia crash")
		partition   = fs.String("partition", "", `diagonal field partition window, e.g. "60s:100s"`)
		invariants  = fs.Bool("invariants", false, "arm the runtime protocol-invariant checker")

		telemetry = fs.Bool("telemetry", false, "collect and print the run's telemetry counters (protocol, MAC, kernel)")
		traceOut  = fs.String("trace-out", "", "write the full protocol trace as NDJSON to this file (see cmd/tracestat)")
		snapEvery = fs.Duration("snapshot-every", 0, "dump per-node protocol state at this virtual-time interval into the -trace-out file or the -flight ring (requires one of them)")
		pprofOut  = fs.String("pprof", "", "write a CPU profile of the run to this file")

		flightPath     = fs.String("flight", "", "arm the flight recorder; dump recent trace records to this file on an invariant violation or panic")
		forceViolation = fs.Duration("force-violation", 0, "inject a synthetic invariant violation at this virtual time (arms -invariants; exercises the flight-dump path)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	var err error
	cfg.Scheme, err = core.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	cfg.Nodes = *nodes
	cfg.Seed = *seed
	cfg.Duration = *duration
	cfg.Workload.Sources = *sources
	cfg.Workload.Sinks = *sinks
	switch *placement {
	case "corner":
		cfg.Workload.Placement = workload.PlaceCorner
	case "random":
		cfg.Workload.Placement = workload.PlaceRandom
	default:
		return fmt.Errorf("unknown placement %q", *placement)
	}
	cfg.Diffusion.Agg, err = agg.ByName(*aggName)
	if err != nil {
		return err
	}
	if *forceViolation > 0 {
		*invariants = true // a violation drill needs the checker armed
	}
	cc := chaos.Config{
		Loss: chaos.LossConfig{
			Drop:              *loss,
			Burst:             *burst,
			AsymmetryFraction: *asymFrac,
			AsymmetryDrop:     *asymDrop,
		},
		Amnesia:           chaos.AmnesiaConfig{MeanInterval: *amnesia, Downtime: *amnesiaDown},
		CheckInvariants:   *invariants,
		SelfTestViolation: *forceViolation,
	}
	if *partition != "" {
		p, err := parsePartition(*partition, cfg.FieldSide)
		if err != nil {
			return err
		}
		cc.Partitions = append(cc.Partitions, p)
	}
	if *loss > 0 || *burst || *asymFrac > 0 || *amnesia > 0 || *partition != "" || *invariants {
		cfg.Chaos = &cc
	}
	if *failures {
		fc := failure.DefaultConfig()
		cfg.Failures = &fc
	}
	if *rtscts {
		cfg.MAC.UseRTSCTS = true
	}
	if *repair {
		cfg.Diffusion.Repair = diffusion.DefaultRepairParams()
	}
	cfg.BatteryJ = *battery
	if *mobility != "" {
		model, err := topology.ParseMobilityModel(*mobility)
		if err != nil {
			return err
		}
		if model != topology.MobilityNone {
			mc := topology.DefaultMobilityConfig(model)
			if *mobilityTick > 0 {
				mc.Epoch = *mobilityTick
			}
			if *speedMin > 0 {
				mc.SpeedMin = *speedMin
			}
			if *speed > 0 {
				mc.SpeedMax = *speed
				if mc.SpeedMin > mc.SpeedMax {
					mc.SpeedMin = mc.SpeedMax
				}
			}
			if *pause >= 0 {
				mc.Pause = *pause
			}
			if *step > 0 {
				mc.Step = *step
			}
			cfg.Mobility = mc
		}
	}
	if *joinFrac > 0 || *leaveEvery > 0 {
		cfg.Churn = failure.ChurnConfig{
			JoinFraction:  *joinFrac,
			JoinWindow:    *joinWindow,
			LeaveInterval: *leaveEvery,
		}
	}

	var tracers []trace.Sink
	var rec *trace.Recorder
	if *traceArg != "" {
		kinds, err := parseKinds(*traceArg)
		if err != nil {
			return err
		}
		rec = trace.NewRecorder(1 << 16)
		rec.SetFilter(trace.KindFilter(kinds...))
		tracers = append(tracers, rec)
	}
	var nd *trace.FileNDJSON
	if *traceOut != "" {
		nd, err = trace.NewNDJSONFile(*traceOut)
		if err != nil {
			return err
		}
		defer nd.Close()
		tracers = append(tracers, nd)
	}
	switch len(tracers) {
	case 0:
	case 1:
		cfg.Tracer = tracers[0]
	default:
		cfg.Tracer = trace.MultiSink(tracers...)
	}

	if *telemetry || *snapEvery > 0 {
		cfg.Telemetry = &obs.Config{SnapshotEvery: *snapEvery}
	}

	cfg.FlightPath = *flightPath

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	res, err := core.Run(cfg)
	if err != nil {
		return err
	}

	m := res.Metrics
	fmt.Fprintf(out, "scheme                      %s\n", m.Scheme)
	fmt.Fprintf(out, "nodes                       %d (density %.1f neighbors)\n", m.Nodes, m.Density)
	fmt.Fprintf(out, "workload                    %d sources, %d sinks, %s placement, %s aggregation\n",
		*sources, *sinks, *placement, *aggName)
	fmt.Fprintf(out, "events generated            %d\n", m.GeneratedEvents)
	fmt.Fprintf(out, "distinct events delivered   %d\n", m.DeliveredEvents)
	fmt.Fprintf(out, "delivery ratio              %.3f\n", m.DeliveryRatio)
	fmt.Fprintf(out, "average delay               %.3f s\n", m.AvgDelay)
	fmt.Fprintf(out, "  delivery latency          p50 %.3f s, p95 %.3f s, p99 %.3f s\n",
		m.DelayP50, m.DelayP95, m.DelayP99)
	fmt.Fprintf(out, "  tree depth                %.1f hops mean, %d max (fan-in up to %d)\n",
		m.MeanDepth, m.MaxDepth, m.MaxFanIn)
	fmt.Fprintf(out, "avg dissipated energy       %.6f J/node/event\n", m.AvgDissipatedEnergy)
	fmt.Fprintf(out, "  communication component   %.6f J/node/event\n", m.AvgCommEnergy)
	fmt.Fprintf(out, "  network totals            %.2f J total, %.2f J tx+rx\n", m.TotalEnergy, m.CommEnergy)
	fmt.Fprintf(out, "  hottest node              %.4f J tx+rx (%.1fx the mean)\n",
		m.Concentration.MaxNodeJ, m.Concentration.PeakToMean)
	if *battery > 0 {
		fmt.Fprintf(out, "battery deaths              %d (first at %v)\n",
			res.Lifetime.Deaths, res.Lifetime.FirstDeath.Round(time.Millisecond))
	}

	if *verbose {
		fmt.Fprintf(out, "\nprotocol sends by kind:\n")
		for k := msg.KindInterest; k <= msg.KindRepairProbe; k++ {
			if n := res.Sent[k]; n > 0 {
				fmt.Fprintf(out, "  %-14s %d\n", k, n)
			}
		}
		st := res.MAC
		fmt.Fprintf(out, "\nMAC: %d frames (%d ACKs), %d delivered, %d collisions, %d retries, %d backoffs, %d bytes on air\n",
			st.DataTx, st.AckTx, st.Delivered, st.Collisions, st.Retries, st.Backoffs, st.BytesOnAir)
		printDrops(out, st.Drops)
		k := res.Kernel
		fmt.Fprintf(out, "kernel: %d events in %v (%.0f events/s), queue high water %d\n",
			k.Events, k.WallTime.Round(time.Millisecond), k.EventsPerSec(), k.QueueHighWater)
	}

	if rep := res.Chaos; rep != nil {
		fmt.Fprintf(out, "\nchaos: %d link losses, %d crashes\n", rep.LinkLoss, rep.Crashes)
		if rec := rep.Recovery; rec != nil && rec.Faults > 0 {
			fmt.Fprintf(out, "  faults                    %d (%d repaired)\n", rec.Faults, rec.Repaired)
			fmt.Fprintf(out, "  mean time to repair       %v (max %v)\n",
				rec.MeanTimeToRepair.Round(time.Millisecond), rec.MaxTimeToRepair.Round(time.Millisecond))
			fmt.Fprintf(out, "  mean dip depth            %.2f\n", rec.MeanDipDepth)
			fmt.Fprintf(out, "  availability              %.3f\n", rec.Availability)
			if rec.OutageTime > 0 {
				fmt.Fprintf(out, "  outage time               %v (%d generated, ~%d lost during outages)\n",
					rec.OutageTime.Round(time.Millisecond), rec.GeneratedDuringOutage, rec.LostDuringOutage)
			}
			for _, b := range rec.TTRBuckets {
				if b.Count == 0 {
					continue
				}
				label := "overflow"
				if b.UpTo != 0 {
					label = "<=" + b.UpTo.String()
				}
				fmt.Fprintf(out, "  ttr %-21s %d\n", label, b.Count)
			}
		}
		if *invariants {
			fmt.Fprintf(out, "  invariant violations      %d\n", rep.ViolationCount)
			for _, v := range rep.Violations {
				fmt.Fprintf(out, "    %v\n", v)
			}
		}
	}

	if mob := res.Mobility; mob != nil {
		fmt.Fprintf(out, "\nmobility: %d epochs, %d link changes, %.0f m traveled\n",
			mob.Epochs, mob.LinkChanges, mob.TotalDistance)
		if mob.Epochs > 0 {
			fmt.Fprintf(out, "  node speed                %.2f m/s mean, %.2f max\n",
				mob.MeanSpeed, mob.MaxSpeed)
			for _, b := range mob.SpeedBuckets {
				if b.Nodes == 0 {
					continue
				}
				label := fmt.Sprintf("<=%.1f m/s", b.UpTo)
				if b.Last {
					label = fmt.Sprintf("> %.1f m/s", b.UpTo)
				}
				fmt.Fprintf(out, "  %-12s %3d nodes, %.4f J tx+rx each\n",
					label, b.Nodes, b.MeanCommJ)
			}
		}
		if mob.Joins > 0 || mob.Departures > 0 {
			fmt.Fprintf(out, "  churn                     %d joins, %d departures\n",
				mob.Joins, mob.Departures)
		}
	}

	if rs := res.Repair; rs != nil {
		fmt.Fprintf(out, "\nself-healing: %d watchdog fires, %d re-reinforcements, %d probes (%d replies)\n",
			rs.WatchdogFires, rs.Reinforces, rs.Probes, rs.ProbeReplies)
		fmt.Fprintf(out, "  %d control retransmissions, %d data rebuffers, %d fallback broadcasts\n",
			rs.CtrlRetries, rs.DataRebuffers, rs.FallbackBroadcasts)
	}

	if *fieldMap {
		if err := renderMap(out, cfg, res); err != nil {
			return err
		}
	}

	if *telemetry {
		printTelemetry(out, res.Telemetry)
	}

	if rec != nil {
		fmt.Fprintf(out, "\ntrace (%d events, newest %d retained):\n", rec.Total(), len(rec.Events()))
		for _, e := range rec.Events() {
			fmt.Fprintln(out, e)
		}
	}
	if nd != nil {
		if err := nd.Close(); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Fprintf(out, "\ntrace written to %s (inspect with tracestat)\n", *traceOut)
	}
	if fr := res.Flight; fr != nil {
		switch {
		case fr.Err != nil:
			fmt.Fprintf(out, "\nflight recorder: dump to %s failed: %v\n", fr.Path, fr.Err)
		case fr.Dumped:
			fmt.Fprintf(out, "\nflight recorder: dumped %d of %d records to %s (inspect with tracestat)\n",
				fr.Records, fr.Total, fr.Path)
		default:
			fmt.Fprintf(out, "\nflight recorder: armed, no violation — nothing dumped (%d records buffered)\n",
				fr.Records)
		}
	}
	return nil
}

// printDrops prints the MAC's non-zero transmit drops in DropReason order.
func printDrops(w io.Writer, drops [mac.DropNodeOff + 1]int) {
	for reason := mac.DropQueueFull; reason <= mac.DropNodeOff; reason++ {
		if n := drops[reason]; n > 0 {
			fmt.Fprintf(w, "  drops[%s] = %d\n", reason, n)
		}
	}
}

// printTelemetry dumps the telemetry snapshot, one aligned line per metric.
func printTelemetry(w io.Writer, metrics []obs.Metric) {
	fmt.Fprintf(w, "\ntelemetry (%d metrics):\n", len(metrics))
	for _, m := range metrics {
		name := m.Name
		if m.Labels != "" {
			name += "{" + m.Labels + "}"
		}
		switch m.Kind {
		case obs.KindGauge:
			fmt.Fprintf(w, "  %-55s %14.4g (max %.4g)\n", name, m.Value, m.Max)
		case obs.KindHistogram:
			mean := 0.0
			if m.Count > 0 {
				mean = m.Sum / float64(m.Count)
			}
			fmt.Fprintf(w, "  %-55s n=%-10d mean=%.2f\n", name, m.Count, mean)
		default:
			fmt.Fprintf(w, "  %-55s %14.0f\n", name, m.Value)
		}
	}
}

// renderMap draws the field with the final aggregation tree(s).
func renderMap(w io.Writer, cfg core.Config, res core.Output) error {
	onTree := map[topology.NodeID]bool{}
	links := 0
	for _, tree := range res.Trees {
		for _, l := range tree {
			onTree[l[0]] = true
			onTree[l[1]] = true
			links++
		}
	}
	roles := map[topology.NodeID]rune{}
	for _, s := range res.Assignment.Sources {
		roles[s] = 'o'
	}
	for _, s := range res.Assignment.Sinks {
		roles[s] = 'S'
	}
	m := plot.FieldMap{
		Title: fmt.Sprintf("\nfield map (%d nodes, %d tree links)", len(res.Positions), links),
		MinX:  0, MinY: 0, MaxX: cfg.FieldSide, MaxY: cfg.FieldSide,
		Legend: map[rune]string{
			'S': "sink", 'o': "source", '*': "on-tree relay", '.': "idle node",
		},
	}
	for id, p := range res.Positions {
		nd := plot.FieldNode{X: p.X, Y: p.Y, Mark: '.'}
		if onTree[topology.NodeID(id)] {
			nd.Mark = '*'
		}
		if r, ok := roles[topology.NodeID(id)]; ok {
			nd.Mark = r
		}
		m.Nodes = append(m.Nodes, nd)
	}
	return m.Render(w)
}

// parsePartition turns "start:end" into a diagonal cut across the square
// field for that time window.
func parsePartition(arg string, fieldSide float64) (chaos.Partition, error) {
	var p chaos.Partition
	parts := strings.SplitN(arg, ":", 2)
	if len(parts) != 2 {
		return p, fmt.Errorf(`partition %q: want "start:end", e.g. "60s:100s"`, arg)
	}
	start, err := time.ParseDuration(strings.TrimSpace(parts[0]))
	if err != nil {
		return p, fmt.Errorf("partition start: %w", err)
	}
	end, err := time.ParseDuration(strings.TrimSpace(parts[1]))
	if err != nil {
		return p, fmt.Errorf("partition end: %w", err)
	}
	m := fieldSide * 0.05
	p = chaos.Partition{
		Start: start, End: end,
		A: geom.Point{X: -m, Y: fieldSide + m},
		B: geom.Point{X: fieldSide + m, Y: -m},
	}
	return p, p.Validate()
}

func parseKinds(arg string) ([]msg.Kind, error) {
	var kinds []msg.Kind
	for _, name := range strings.Split(arg, ",") {
		k, err := msg.ParseKind(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}
