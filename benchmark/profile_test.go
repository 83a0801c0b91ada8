package main

import (
	"bytes"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/setcover"
)

var spinSink int

// spin burns CPU in this package, which belongs to no layer.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += i * i
		}
	}
}

// TestCPUProfileAttribution decodes a real CPU profile: time in a busy loop
// over setcover.Greedy, including the runtime map work it calls, is charged
// to the setcover layer, and a loop in this package to "other".
func TestCPUProfileAttribution(t *testing.T) {
	universe := []int{0, 1, 2, 3, 4, 5, 6, 7}
	family := []setcover.Subset[int]{
		{Label: 0, Elements: []int{0, 1, 2}, Weight: 1},
		{Label: 1, Elements: []int{2, 3, 4, 5}, Weight: 1.5},
		{Label: 2, Elements: []int{5, 6, 7}, Weight: 1},
		{Label: 3, Elements: []int{0, 7}, Weight: 0.5},
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	// The clock is read every 100 calls, so that the loop itself, in this
	// package, stays a small part of the time even under the race detector.
	for end := time.Now().Add(600 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 100; i++ {
			if _, err := setcover.Greedy(universe, family); err != nil {
				pprof.StopCPUProfile()
				t.Fatal(err)
			}
		}
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.valueIndex("samples/count"); err != nil {
		t.Fatal(err)
	}
	got, err := attribute(p, "cpu/nanoseconds")
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for layer, v := range got {
		switch layer {
		case "total":
		case "setcover", "gc", "other":
			total += v
		default:
			t.Errorf("unexpected layer %q with %v ns", layer, v)
		}
	}
	if total == 0 || total != got["total"] {
		t.Fatalf("layers sum to %v ns of a %v ns total", total, got["total"])
	}
	if share := got["setcover"] / total; share < 0.4 {
		t.Errorf("setcover share %.2f of %v ns, want at least 0.4 (%v)", share, total, got)
	}
	if share := got["other"] / total; share < 0.1 {
		t.Errorf("other share %.2f of %v ns, want at least 0.1 (%v)", share, total, got)
	}
}

// TestAttributeStacks checks the attribution rules on hand-built stacks,
// innermost frame first.
func TestAttributeStacks(t *testing.T) {
	p := &profile{types: []string{"cpu/nanoseconds"}}
	add := func(v int64, stack ...string) {
		p.samples = append(p.samples, sample{stack: stack, values: []int64{v}})
	}
	// The runtime work a layer calls is the layer's.
	add(1, "runtime.mapassign", "repro/internal/setcover.Greedy[...]", "repro/internal/diffusion.(*node).flush")
	// No repository frame: the background mark worker is gc, the rest other.
	add(2, "runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit")
	add(4, "runtime.futex", "runtime.findRunnable", "runtime.schedule")
	// Sub-layers match anywhere in the layer's own call chain...
	add(8, "repro/internal/sim.(*Kernel).evLess", "repro/internal/sim.(*Kernel).siftDown", "repro/internal/sim.(*Kernel).Run")
	add(16, "repro/internal/mac.rxSet.find", "repro/internal/mac.(*Network).end", "repro/internal/sim.(*Kernel).Run")
	add(32, "runtime.memmove", "repro/internal/topology.(*Field).relink", "repro/internal/topology.(*Field).MoveNode",
		"repro/internal/topology.(*Mover).Advance", "repro/internal/core.(*mobilityEpoch).Run")
	add(64, "repro/internal/diffusion.(*gradTable).find", "repro/internal/diffusion.(*node).setGradient")
	// ...but not past a frame of another package.
	add(128, "repro/internal/obs.canonLabels", "repro/internal/core.installDropHook.func1",
		"repro/internal/mac.(*Network).reportDrop", "repro/internal/mac.rxSet.find")
	add(256, "repro/internal/mac.(*Network).begin", "repro/internal/sim.(*Kernel).evLess")
	// Helper packages fold into their layer.
	add(512, "repro/internal/geom.Dist", "repro/internal/topology.(*Field).rebuild")
	// The host-speed reference, run from the harness's callback, is no layer's.
	add(1024, "main.heapPush", refFrame, "main.(*speedometer).tick", "main.runPass.func1",
		"repro/internal/harness.runCell")

	got, err := attribute(p, "cpu/nanoseconds")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"setcover": 1, "gc": 2, "other": 4,
		"sim": 8, "sim.heap": 8,
		"mac": 16 + 256, "mac.rxset": 16,
		"topology": 32 + 512, "topology.mobility": 32,
		"diffusion": 64, "diffusion.tables": 64,
		"obs":   128,
		"total": 1023,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected bucket %s = %v", k, got[k])
		}
	}
	if _, err := attribute(p, "alloc_space/bytes"); err == nil {
		t.Error("attributing a value type the profile lacks should fail")
	}
}

// TestEveryPackageHasALayer keeps the layer table complete: a new package
// under internal/ must be assigned a layer, and every layer must have its
// self-time metric in BENCHMARK.json.
func TestEveryPackageHasALayer(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	// An entry for a deleted package is harmless, so the table may outlive
	// the package: a change that deletes one need not edit the benchmark.
	for _, e := range entries {
		if _, ok := layers[e.Name()]; e.IsDir() && !ok {
			t.Errorf("package internal/%s has no layer", e.Name())
		}
	}
	perLayer := map[string]bool{}
	for _, m := range loadBenchmarkJSON(t).PerLayer {
		perLayer[m.Name] = true
	}
	for _, layer := range layers {
		if !perLayer[layer+".self_s"] {
			t.Errorf("layer %s has no %s.self_s metric in BENCHMARK.json", layer, layer)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("want an error for data that is not gzip")
	}
	// A length-delimited field running past the end of the message.
	if err := eachField([]byte{0x0a, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Error("want an error for a truncated field")
	}
}
