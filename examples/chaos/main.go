// Chaos: the fault-injection layer beyond the paper's clean §5.3 outage
// model. Four fault classes — i.i.d. link loss, a bursty Gilbert–Elliott
// channel, crash-with-amnesia reboots, and a scheduled field partition —
// each run with the protocol-invariant checker armed, reporting the
// recovery metrics (time to repair, delivery dip, availability) alongside
// the paper's three panels.
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/geom"
)

func main() {
	fmt.Println("Chaos injection: loss, bursts, amnesia crashes, and a partition")
	fmt.Println("(150-node field, 5 corner sources, 1 sink, greedy aggregation)")
	fmt.Println()

	scenarios := []struct {
		label string
		cfg   chaos.Config
	}{
		{"clean        ", chaos.Config{CheckInvariants: true}},
		{"10% loss     ", chaos.Config{
			Loss:            chaos.LossConfig{Drop: 0.10},
			CheckInvariants: true,
		}},
		{"bursty links ", chaos.Config{
			Loss:            chaos.LossConfig{Burst: true},
			CheckInvariants: true,
		}},
		{"amnesia 10s  ", chaos.Config{
			Amnesia:         chaos.AmnesiaConfig{MeanInterval: 10 * time.Second, Downtime: 2 * time.Second},
			CheckInvariants: true,
		}},
		{"partition    ", chaos.Config{
			// Cut the field diagonally for the middle third of the run,
			// separating the corner workload from the opposite corner.
			Partitions: []chaos.Partition{{
				Start: 55 * time.Second, End: 105 * time.Second,
				A: geom.Point{X: -10, Y: 210}, B: geom.Point{X: 210, Y: -10},
			}},
			CheckInvariants: true,
		}},
	}

	for _, sc := range scenarios {
		cfg := core.DefaultConfig()
		cfg.Scheme = core.SchemeGreedy
		cfg.Nodes = 150
		cfg.Seed = 5
		cfg.Duration = 160 * time.Second
		cc := sc.cfg
		cfg.Chaos = &cc
		out, err := core.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		m := out.Metrics
		rep := out.Chaos
		fmt.Printf("%s delivery %.3f  delay %.3fs  losses %6d  crashes %2d  violations %d\n",
			sc.label, m.DeliveryRatio, m.AvgDelay, rep.LinkLoss, rep.Crashes, rep.ViolationCount)
		if rec := rep.Recovery; rec != nil && rec.Faults > 0 {
			fmt.Printf("              %d faults, %d repaired, mean repair %v, dip %.2f, availability %.3f\n",
				rec.Faults, rec.Repaired, rec.MeanTimeToRepair.Round(time.Millisecond),
				rec.MeanDipDepth, rec.Availability)
		}
	}

	fmt.Println()
	fmt.Println("Loss and bursts tax the MAC but rarely the tree; a crash with amnesia")
	fmt.Println("forces the node to re-learn its gradients from the next flood, and a")
	fmt.Println("partition stops delivery outright until the window closes. The checker")
	fmt.Println("verifies the protocol's invariants hold through all of it: no off-node")
	fmt.Println("traffic, no duplicate sink deliveries, monotone incremental costs, and")
	fmt.Println("no persistent gradient loops.")
}
