package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

// The set-up cells are built at least setupPasses times and for at least
// setupSeconds, so that the median pass, setup_s, is steady even where one
// pass takes milliseconds.
const (
	setupPasses  = 3
	setupSeconds = 1.0
)

// span is one timed interval of a run: the workload, a set-up pass and its
// cells, or a measured pass and its cells. Times are nanoseconds since the
// run started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Traced   bool   `json:"traced,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps a run's spans in memory. It is safe for the sweep's
// worker goroutines; a nil recorder records nothing.
type recorder struct {
	mu       sync.Mutex
	workload string
	epoch    time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent int, traced bool, start, end time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload,
		Traced: traced, StartNS: int64(start), EndNS: int64(end)})
	return id
}

// begin opens a span whose end is set by finish.
func (r *recorder) begin(name string, parent int, traced bool) int {
	if r == nil {
		return 0
	}
	t := r.now()
	return r.add(name, parent, traced, t, t)
}

func (r *recorder) finish(id int) {
	if r == nil {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].EndNS = int64(t)
	r.mu.Unlock()
}

func (r *recorder) writeNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// passResult is one regeneration of a workload's figure.
type passResult struct {
	wall    time.Duration   // at nominal host speed
	raw     time.Duration   // host time of the harness call
	refs    []time.Duration // the pass's reference runs
	outs    []harness.LedgerOutput
	err     error
	profile []byte // CPU profile of a traced pass
}

// runPass regenerates the figure once through its harness entry point,
// collecting every cell's summary. A cell span ends when OnRun reports the
// cell and starts the cell's kernel wall time earlier. The pass is timed
// against the host-speed reference, run before and after it and between
// cells; the layer attribution leaves the reference's samples out.
func runPass(w workload, s size, seed int64, traced bool, rec *recorder, parent int) passResult {
	var p passResult
	var mu sync.Mutex
	o := s.options(seed)
	ps := rec.begin("pass", parent, traced)
	speed := startSpeedometer()
	o.OnRun = func(lo harness.LedgerOutput) {
		if rec != nil {
			end := rec.now()
			rec.add("cell", ps, traced, end-lo.Kernel.WallTime, end)
		}
		mu.Lock()
		p.outs = append(p.outs, lo)
		speed.tick(false)
		mu.Unlock()
	}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			p.err = fmt.Errorf("start CPU profile: %w", err)
			return p
		}
	}
	p.err = w.run(o)
	if traced {
		pprof.StopCPUProfile()
		p.profile = prof.Bytes()
	}
	p.raw, p.wall = speed.stop()
	p.refs = speed.refs
	rec.finish(ps)
	return p
}

// measurement is what one run of a workload observed.
type measurement struct {
	setup       []time.Duration // set-up pass totals at nominal host speed
	walls       []time.Duration // untraced pass times at nominal host speed
	raws        []time.Duration // the same passes' host times
	tracedWalls []time.Duration // traced pass times at nominal host speed
	refs        []time.Duration // host-speed reference runs of the timed work
	rss         []float64       // peak resident bytes of each untraced pass
	cells       int             // cells attempted over the measured passes
	failed      int             // cells that errored, did not hash, broke an invariant, or moved a digest
	first       []harness.LedgerOutput
	cpu         map[string]float64 // CPU nanoseconds per layer over the traced passes
	alloc       map[string]float64 // bytes allocated per layer per measured pass
	profiles    [][]byte
	heap        []byte
	rec         *recorder
}

// measure runs the workload's set-up passes, then measured passes for at
// least the given seconds. Traced, half the timed passes run under the CPU
// profiler and allocation is attributed over all measured passes. Each
// pass's digests are checked against pinned (when non-nil) or else against
// the first pass.
func measure(w workload, s size, seed int64, seconds float64, traced bool, pinned []string) (*measurement, error) {
	m := &measurement{rec: newRecorder(w.name)}
	root := m.rec.begin("workload", 0, traced)
	defer m.rec.finish(root)

	cfgs := w.cells(s, seed)
	setupStart := time.Now()
	speed := startSpeedometer()
	for i := 0; i < setupPasses || time.Since(setupStart).Seconds() < setupSeconds; i++ {
		sp := m.rec.begin("setup", root, false)
		before := speed.scaled
		for _, cfg := range cfgs {
			// Cut to no simulated time: field generation, placement,
			// construction and teardown, with almost no events.
			cfg.Duration, cfg.DrainTail = time.Millisecond, 0
			start := m.rec.now()
			_, err := core.Run(cfg)
			m.rec.add("setup_cell", sp, false, start, m.rec.now())
			if err != nil {
				return nil, fmt.Errorf("set-up cell (seed %d): %w", cfg.Seed, err)
			}
		}
		m.rec.finish(sp)
		speed.tick(true)
		m.setup = append(m.setup, time.Duration(speed.scaled-before))
	}
	m.refs = speed.refs

	var heap0 map[string]float64
	if traced {
		var err error
		if heap0, _, err = allocByLayer(); err != nil {
			return nil, err
		}
	}
	want := pinned
	begin := time.Now()
	passes := 0
	for pass := 0; ; pass++ {
		// Pass 0 warms caches and the heap and is checked but not timed.
		// Traced runs then order their passes traced, untraced, untraced,
		// traced, so that a drift in host speed cancels out of
		// trace.overhead.
		tracedPass := traced && pass > 0 && pass%4 <= 1
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		p := runPass(w, s, seed, tracedPass, m.rec, root)
		rss, err := peakRSS()
		if err != nil {
			return nil, err
		}
		passes++
		m.cells += len(cfgs)
		m.failed += max(len(cfgs)-len(p.outs), 0)
		ds, bad := digests(p.outs)
		m.failed += bad
		if want != nil {
			m.failed += unmatched(ds, want)
		}
		for _, lo := range p.outs {
			if lo.Chaos != nil && lo.Chaos.ViolationCount > 0 {
				m.failed++
			}
		}
		if pass == 0 {
			m.first = p.outs
			if want == nil {
				want = ds
			}
		}
		if p.err != nil {
			return m, fmt.Errorf("pass %d: %w", pass, p.err)
		}
		switch {
		case pass == 0:
		case tracedPass:
			m.tracedWalls = append(m.tracedWalls, p.wall)
			m.profiles = append(m.profiles, p.profile)
		default:
			m.walls = append(m.walls, p.wall)
			m.raws = append(m.raws, p.raw)
			m.refs = append(m.refs, p.refs...)
			m.rss = append(m.rss, rss)
		}
		if time.Since(begin).Seconds() >= seconds && len(m.walls) > 0 &&
			(!traced || len(m.tracedWalls) == len(m.walls)) {
			break
		}
	}
	if !traced {
		return m, nil
	}

	m.cpu = map[string]float64{}
	for _, data := range m.profiles {
		p, err := parseProfile(data)
		if err != nil {
			return nil, err
		}
		byLayer, err := attribute(p, "cpu/nanoseconds")
		if err != nil {
			return nil, err
		}
		for k, v := range byLayer {
			m.cpu[k] += v
		}
	}
	heap1, heap, err := allocByLayer()
	if err != nil {
		return nil, err
	}
	m.heap = heap
	m.alloc = map[string]float64{}
	for k, v := range heap1 {
		m.alloc[k] = (v - heap0[k]) / float64(passes)
	}
	return m, nil
}

// allocByLayer returns the bytes allocated so far per layer, from a heap
// profile taken after a collection so that it is up to date, and the
// profile itself.
func allocByLayer() (map[string]float64, []byte, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, nil, fmt.Errorf("heap profile: %w", err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	byLayer, err := attribute(p, "alloc_space/bytes")
	return byLayer, buf.Bytes(), err
}

// resetPeakRSS sets the process's peak resident set size, VmHWM, back to
// its current resident set size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS returns the process's peak resident set size in bytes since the
// last resetPeakRSS.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("read peak RSS: %w", err)
			}
			return kb * 1024, nil
		}
	}
	return 0, errors.New("read peak RSS: no VmHWM in /proc/self/status")
}

func median[T ~int64 | ~float64](ds []T) T {
	if len(ds) == 0 {
		return 0
	}
	s := append([]T(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
