// Mobility models: deterministic node movement over a Field.
//
// Two classic models are provided. Random waypoint (the ns-2 staple the
// diffusion literature evaluates against) picks a uniform destination and a
// uniform leg speed, travels there in straight epoch-sized steps, pauses,
// and repeats. The bounded random-step walk ports the related lifetime-tree
// simulators' move_nodes kernel: every epoch each node takes an independent
// uniform step of at most Step meters per axis, clamped to the deployment
// area.
//
// Movement is discretized on an epoch timer driven by the caller (the sim
// kernel schedules Advance; topology stays kernel-free), and every random
// choice flows through the supplied *rand.Rand — the kernel's — so a (seed,
// config) pair determines the whole trajectory. Each step funnels through
// Field.MoveNode, which incrementally rebuilds the touched adjacency lists;
// Advance reports how many directed links changed so callers can treat a
// link-changing epoch as a fault event for recovery metrics.
package topology

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geom"
)

// MobilityModel selects a movement model.
type MobilityModel int

// Mobility models. The zero value means no movement, keeping the zero
// MobilityConfig inert.
const (
	MobilityNone MobilityModel = iota
	// MobilityWaypoint is the random-waypoint model: travel to a uniform
	// destination at a uniform speed in [SpeedMin, SpeedMax], pause, repeat.
	MobilityWaypoint
	// MobilityWalk is the bounded random-step walk: a uniform per-axis step
	// in [-Step, Step] every epoch, clamped to the area.
	MobilityWalk
)

// String implements fmt.Stringer.
func (m MobilityModel) String() string {
	switch m {
	case MobilityNone:
		return "none"
	case MobilityWaypoint:
		return "waypoint"
	case MobilityWalk:
		return "walk"
	default:
		return fmt.Sprintf("mobility(%d)", int(m))
	}
}

// ParseMobilityModel converts a model name from the CLI into a MobilityModel.
func ParseMobilityModel(name string) (MobilityModel, error) {
	for _, m := range []MobilityModel{MobilityNone, MobilityWaypoint, MobilityWalk} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("topology: unknown mobility model %q", name)
}

// MobilityConfig describes node movement. The zero value is inert (no
// movement, no validation demands), mirroring diffusion.Params.Repair.
type MobilityConfig struct {
	// Model selects the movement model; MobilityNone disables mobility.
	Model MobilityModel
	// Epoch is the position-update interval.
	Epoch time.Duration
	// SpeedMin and SpeedMax bound the uniform leg speed (m/s) of the
	// waypoint model.
	SpeedMin, SpeedMax float64
	// Pause is how long a waypoint node rests at each destination.
	Pause time.Duration
	// Step is the walk model's maximum per-axis displacement per epoch (m).
	Step float64
}

// Enabled reports whether the configuration asks for any movement.
func (c MobilityConfig) Enabled() bool { return c.Model != MobilityNone }

// Validate reports the first problem with the configuration, if any. The
// zero value is always valid.
func (c MobilityConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.Epoch <= 0 {
		return fmt.Errorf("topology: mobility epoch %v not positive", c.Epoch)
	}
	switch c.Model {
	case MobilityWaypoint:
		switch {
		case c.SpeedMax <= 0:
			return fmt.Errorf("topology: waypoint speed max %v not positive", c.SpeedMax)
		case c.SpeedMin < 0 || c.SpeedMin > c.SpeedMax:
			return fmt.Errorf("topology: waypoint speed range [%v, %v] invalid", c.SpeedMin, c.SpeedMax)
		case c.Pause < 0:
			return fmt.Errorf("topology: negative waypoint pause %v", c.Pause)
		}
	case MobilityWalk:
		if c.Step <= 0 {
			return fmt.Errorf("topology: walk step %v not positive", c.Step)
		}
	default:
		return fmt.Errorf("topology: unknown mobility model %d", int(c.Model))
	}
	return nil
}

// DefaultMobilityConfig returns sensible parameters for the given model:
// 1 s epochs, pedestrian waypoint speeds (0.5–2 m/s with a 5 s pause), or a
// 2 m bounded walk step.
func DefaultMobilityConfig(model MobilityModel) MobilityConfig {
	switch model {
	case MobilityWaypoint:
		return MobilityConfig{
			Model: MobilityWaypoint, Epoch: time.Second,
			SpeedMin: 0.5, SpeedMax: 2, Pause: 5 * time.Second,
		}
	case MobilityWalk:
		return MobilityConfig{Model: MobilityWalk, Epoch: time.Second, Step: 2}
	default:
		return MobilityConfig{}
	}
}

// Mover advances a field's nodes under a mobility model. Construct with
// NewMover and call Advance once per epoch with the kernel's clock and RNG.
type Mover struct {
	field  *Field
	cfg    MobilityConfig
	pinned []bool

	distance []float64 // meters traveled per node

	// Waypoint per-node state.
	target     []geom.Point
	legSpeed   []float64
	hasTarget  []bool
	pauseUntil []time.Duration

	epochs      int
	linkChanges int
}

// NewMover builds a mover over field. Nodes in pinned never move (core pins
// the sinks, the usual sensor-network reading: mobile sensors report to a
// fixed base station).
func NewMover(field *Field, cfg MobilityConfig, pinned []NodeID) (*Mover, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, fmt.Errorf("topology: NewMover with disabled mobility config")
	}
	n := field.Len()
	m := &Mover{
		field:    field,
		cfg:      cfg,
		pinned:   make([]bool, n),
		distance: make([]float64, n),
	}
	for _, id := range pinned {
		m.pinned[id] = true
	}
	if cfg.Model == MobilityWaypoint {
		m.target = make([]geom.Point, n)
		m.legSpeed = make([]float64, n)
		m.hasTarget = make([]bool, n)
		m.pauseUntil = make([]time.Duration, n)
	}
	return m, nil
}

// Advance moves every unpinned node one epoch and returns the number of
// directed links that changed. Nodes are visited in ID order and all
// randomness comes from rng, so trajectories are deterministic in the seed.
func (m *Mover) Advance(now time.Duration, rng *rand.Rand) int {
	m.epochs++
	changed := 0
	for i := range m.pinned {
		if m.pinned[i] {
			continue
		}
		id := NodeID(i)
		switch m.cfg.Model {
		case MobilityWalk:
			changed += m.stepWalk(id, rng)
		case MobilityWaypoint:
			changed += m.stepWaypoint(id, now, rng)
		}
	}
	m.linkChanges += changed
	return changed
}

// stepWalk takes one bounded random step: uniform per-axis displacement in
// [-Step, Step], clamped to the area (the snippet-2 move_nodes kernel).
func (m *Mover) stepWalk(id NodeID, rng *rand.Rand) int {
	pos := m.field.Position(id)
	next := m.field.Area().Clamp(geom.Point{
		X: pos.X + (rng.Float64()*2-1)*m.cfg.Step,
		Y: pos.Y + (rng.Float64()*2-1)*m.cfg.Step,
	})
	m.distance[id] += pos.Dist(next)
	return m.field.MoveNode(id, next)
}

// stepWaypoint advances one random-waypoint leg: draw a destination and
// speed when idle, travel an epoch's worth toward it, and start the pause on
// arrival.
func (m *Mover) stepWaypoint(id NodeID, now time.Duration, rng *rand.Rand) int {
	if now < m.pauseUntil[id] {
		return 0
	}
	if !m.hasTarget[id] {
		m.target[id] = m.field.Area().Sample(rng)
		m.legSpeed[id] = m.cfg.SpeedMax
		if m.cfg.SpeedMax > m.cfg.SpeedMin {
			m.legSpeed[id] = m.cfg.SpeedMin + rng.Float64()*(m.cfg.SpeedMax-m.cfg.SpeedMin)
		}
		m.hasTarget[id] = true
	}
	pos := m.field.Position(id)
	step := m.legSpeed[id] * m.cfg.Epoch.Seconds()
	d := pos.Dist(m.target[id])
	var next geom.Point
	if d <= step {
		next = m.target[id]
		m.hasTarget[id] = false
		m.pauseUntil[id] = now + m.cfg.Pause
	} else {
		next = geom.Point{
			X: pos.X + (m.target[id].X-pos.X)/d*step,
			Y: pos.Y + (m.target[id].Y-pos.Y)/d*step,
		}
	}
	m.distance[id] += pos.Dist(next)
	return m.field.MoveNode(id, next)
}

// Epochs returns how many Advance calls have run.
func (m *Mover) Epochs() int { return m.epochs }

// LinkChanges returns the total directed links gained plus lost so far.
func (m *Mover) LinkChanges() int { return m.linkChanges }

// TotalDistance returns the meters traveled summed over all nodes.
func (m *Mover) TotalDistance() float64 {
	var sum float64
	for _, d := range m.distance {
		sum += d
	}
	return sum
}

// Mobile returns the number of unpinned nodes.
func (m *Mover) Mobile() int {
	n := 0
	for _, p := range m.pinned {
		if !p {
			n++
		}
	}
	return n
}

// Speeds returns each node's realized mean speed (m/s) over elapsed:
// distance traveled divided by elapsed time. Pinned nodes report 0.
func (m *Mover) Speeds(elapsed time.Duration) []float64 {
	out := make([]float64, len(m.distance))
	if elapsed <= 0 {
		return out
	}
	for i, d := range m.distance {
		out[i] = d / elapsed.Seconds()
	}
	return out
}

// MeanSpeed returns the mean realized speed (m/s) over the mobile nodes.
func (m *Mover) MeanSpeed(elapsed time.Duration) float64 {
	mobile := m.Mobile()
	if mobile == 0 || elapsed <= 0 {
		return 0
	}
	return m.TotalDistance() / elapsed.Seconds() / float64(mobile)
}

// MaxSpeed returns the highest realized per-node mean speed (m/s).
func (m *Mover) MaxSpeed(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	var max float64
	for _, d := range m.distance {
		if v := d / elapsed.Seconds(); v > max {
			max = v
		}
	}
	return max
}
