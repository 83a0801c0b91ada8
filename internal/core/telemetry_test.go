package core

import (
	"io"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/diffusion"
	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTelemetryDoesNotPerturbRun pins the subsystem's core promise: enabling
// metrics, snapshots, and the drop hook changes nothing about protocol
// outcomes for a fixed seed.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Seed = 11
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Telemetry = &obs.Config{SnapshotEvery: 5 * time.Second}
	sink := &snapshotCollector{}
	cfg.Tracer = sink
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.snaps) == 0 || len(sink.events) == 0 {
		t.Fatalf("instrumented run recorded %d snapshots and %d events", len(sink.snaps), len(sink.events))
	}

	if !reflect.DeepEqual(plain.Metrics, instrumented.Metrics) {
		t.Fatalf("telemetry changed metrics:\nplain: %+v\ninstr: %+v",
			plain.Metrics, instrumented.Metrics)
	}
	if !reflect.DeepEqual(plain.Sent, instrumented.Sent) {
		t.Fatalf("telemetry changed traffic: %v vs %v", plain.Sent, instrumented.Sent)
	}
	if plain.Telemetry != nil {
		t.Fatal("telemetry snapshot present without Telemetry config")
	}
	if len(instrumented.Telemetry) == 0 {
		t.Fatal("no metrics collected with Telemetry config")
	}
}

func TestTelemetryCountersPopulated(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Seed = 3
	cfg.Telemetry = &obs.Config{}
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"diffusion_exploratory_floods",
		"diffusion_reinforce_sent",
		"diffusion_setcover_calls",
		"mac_data_tx",
		"mac_delivered",
		"sim_events",
	} {
		if v := obs.Value(out.Telemetry, name); v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if out.Kernel.Events == 0 || out.Kernel.WallTime <= 0 {
		t.Fatalf("kernel stats unfilled: %+v", out.Kernel)
	}
	if out.Kernel.QueueHighWater <= 0 {
		t.Fatalf("queue high water = %d", out.Kernel.QueueHighWater)
	}
	if out.Kernel.EventsPerSec() <= 0 {
		t.Fatalf("events/sec = %v", out.Kernel.EventsPerSec())
	}
}

// TestSnapshotsRecorded checks that a SnapshotSink tracer receives periodic
// per-node state dumps with gradients on at least some nodes.
func TestSnapshotsRecorded(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Seed = 7
	cfg.Telemetry = &obs.Config{SnapshotEvery: 10 * time.Second}

	sink := &snapshotCollector{}
	cfg.Tracer = sink
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(sink.snaps) == 0 {
		t.Fatal("no snapshots recorded")
	}
	withGrads, onTree := 0, 0
	for _, s := range sink.snaps {
		if len(s.Gradients) > 0 {
			withGrads++
		}
		if s.OnTree {
			onTree++
		}
	}
	if withGrads == 0 || onTree == 0 {
		t.Fatalf("snapshots carry no protocol state: grads=%d tree=%d of %d",
			withGrads, onTree, len(sink.snaps))
	}
}

// TestSnapshotIntervalNeedsASink: Validate accepts a snapshot interval
// exactly when the run arms snapshot ticks — a diffusion scheme whose
// tracer takes snapshots (trace.SnapshotSink) or whose flight recorder is
// armed — so an interval with nowhere to go fails loudly.
func TestSnapshotIntervalNeedsASink(t *testing.T) {
	flight := filepath.Join(t.TempDir(), "flight.ndjson")
	cases := []struct {
		name   string
		scheme Scheme
		every  time.Duration
		tracer diffusion.Tracer
		flight string
		ok     bool
	}{
		{"greedy with recorder", SchemeGreedy, 5 * time.Second, trace.NewRecorder(64), "", false},
		{"greedy without tracer", SchemeGreedy, 5 * time.Second, nil, "", false},
		{"flooding", SchemeFlooding, 5 * time.Second, nil, "", false},
		{"flooding with flight path", SchemeFlooding, 5 * time.Second, nil, flight, false},
		{"ndjson tracer", SchemeGreedy, 5 * time.Second, trace.NewNDJSON(io.Discard), "", true},
		{"flight path alone", SchemeOpportunistic, 5 * time.Second, nil, flight, true},
		{"recorder with flight path", SchemeGreedy, 5 * time.Second, trace.NewRecorder(64), flight, true},
		{"two recorders", SchemeGreedy, 5 * time.Second,
			trace.MultiSink(trace.NewRecorder(64), trace.NewRecorder(64)), "", false},
		{"recorder and ndjson", SchemeGreedy, 5 * time.Second,
			trace.MultiSink(trace.NewRecorder(64), trace.NewNDJSON(io.Discard)), "", true},
		{"no interval", SchemeGreedy, 0, trace.NewRecorder(64), "", true},
		{"no interval on flooding", SchemeFlooding, 0, nil, "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg(tc.scheme)
			cfg.Telemetry = &obs.Config{SnapshotEvery: tc.every}
			cfg.Tracer, cfg.FlightPath = tc.tracer, tc.flight
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("accepted a snapshot interval no sink takes")
			}
		})
	}
}

type snapshotCollector struct {
	events []trace.Event
	snaps  []trace.SnapshotRecord
}

func (c *snapshotCollector) Record(e trace.Event)                  { c.events = append(c.events, e) }
func (c *snapshotCollector) RecordSnapshot(s trace.SnapshotRecord) { c.snaps = append(c.snaps, s) }

// TestDropHookAllocatesNothingPerDrop pins the drop hook's hot path: with no
// tracer, counting a lost reception is an array increment that allocates
// nothing, every reason counts into its own slot, and non-protocol payloads
// are ignored.
func TestDropHookAllocatesNothingPerDrop(t *testing.T) {
	var drops rxDrops
	hook := dropHook(sim.NewKernel(1), nil, &drops)
	f := mac.Frame{Bytes: 64, Payload: msg.Message{Kind: msg.KindData}}
	reasons := []mac.RxDropReason{mac.RxCollision, mac.RxReceiverOff, mac.RxSenderOff, mac.RxLinkLoss}
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		for _, r := range reasons {
			hook(1, 2, f, r)
		}
		hook(1, 2, mac.Frame{Bytes: 14}, mac.RxCollision)
	})
	if allocs != 0 {
		t.Fatalf("drop hook allocates %v per round of %d drops, want 0", allocs, len(reasons))
	}
	for _, r := range reasons {
		// AllocsPerRun's warm-up call, then the runs.
		if drops[r] != runs+1 {
			t.Errorf("drops[%s] = %d, want %d", r, drops[r], runs+1)
		}
	}
}

// TestRxDropSnapshotHasNoZeroEntries checks that the snapshot carries
// mac_rx_drops only for the reasons that actually occurred.
func TestRxDropSnapshotHasNoZeroEntries(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Seed = 5
	cfg.Telemetry = &obs.Config{}
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drops := obs.Find(out.Telemetry, "mac_rx_drops")
	if len(drops) == 0 {
		t.Fatal("no mac_rx_drops entries in a telemetry-on run")
	}
	for _, m := range drops {
		if m.Value <= 0 {
			t.Errorf("mac_rx_drops{%s} = %v: a reason was registered without a drop", m.Labels, m.Value)
		}
	}
}
