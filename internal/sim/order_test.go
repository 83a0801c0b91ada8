package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refEvent is the reference model's record of one scheduled event. Script
// events go through one counter, so an event's index is also its place in
// the kernel's scheduling order (its seq).
type refEvent struct {
	at        Time
	timer     Timer
	cancelled bool // Stop reported that it prevented the firing
	fired     bool
}

// orderScript drives a kernel through one random script and mirrors every
// scheduled event in a brute-force model.
type orderScript struct {
	t           *testing.T
	script      int
	k           *Kernel
	rng         *rand.Rand
	events      []refEvent
	fired       []int // event indexes in firing order
	compactions int   // Stop calls that shrank the queue
}

// scriptRunner is the ScheduleRunner form of a script event.
type scriptRunner struct {
	s  *orderScript
	id int
}

func (r *scriptRunner) Run() { r.s.fire(r.id) }

// maxScriptEvents bounds the events handlers may add to one script.
const maxScriptEvents = 400

// schedule adds one event through a randomly chosen entry point. Delays
// take only four values, zero among them, so most events tie with others.
func (s *orderScript) schedule() {
	id := len(s.events)
	at := s.k.Now() + Time(s.rng.Intn(4))*time.Millisecond
	var tm Timer
	switch s.rng.Intn(3) {
	case 0:
		tm = s.k.Schedule(at-s.k.Now(), func() { s.fire(id) })
	case 1:
		tm = s.k.ScheduleRunner(at-s.k.Now(), &scriptRunner{s: s, id: id})
	default:
		tm = s.k.At(at, func() { s.fire(id) })
	}
	s.events = append(s.events, refEvent{at: at, timer: tm})
}

// stop cancels event id and checks Stop's verdict against the model.
func (s *orderScript) stop(id int) {
	e := &s.events[id]
	want := !e.fired && !e.cancelled
	before := s.k.Pending()
	if got := e.timer.Stop(); got != want {
		s.t.Fatalf("script %d: Stop(event %d) = %v, want %v", s.script, id, got, want)
	}
	if e.timer.Active() {
		s.t.Fatalf("script %d: event %d still active after Stop", s.script, id)
	}
	if want {
		e.cancelled = true
	}
	if s.k.Pending() < before {
		s.compactions++
	}
}

// burst stops most live events in random order: with a queue of 64 or more
// this crosses the cancelled-outnumber-live mark and compacts the heap.
func (s *orderScript) burst() {
	for _, id := range s.rng.Perm(len(s.events)) {
		if s.rng.Intn(4) != 0 {
			s.stop(id)
		}
	}
}

// fire is every event's handler: it checks the event against the model and
// sometimes schedules further events or stops others.
func (s *orderScript) fire(id int) {
	e := &s.events[id]
	if e.fired || e.cancelled {
		s.t.Fatalf("script %d: event %d fired again or after Stop", s.script, id)
	}
	if now := s.k.Now(); now != e.at {
		s.t.Fatalf("script %d: event %d fired at %v, scheduled for %v", s.script, id, now, e.at)
	}
	e.fired = true
	s.fired = append(s.fired, id)
	for len(s.events) < maxScriptEvents && s.rng.Intn(3) == 0 {
		s.schedule()
	}
	switch r := s.rng.Intn(40); {
	case r == 0:
		s.burst()
	case r < 6:
		s.stop(s.rng.Intn(len(s.events)))
	}
}

// nextLive returns the earliest deadline among events neither fired nor
// cancelled.
func (s *orderScript) nextLive() (Time, bool) {
	var next Time
	ok := false
	for _, e := range s.events {
		if !e.fired && !e.cancelled && (!ok || e.at < next) {
			next, ok = e.at, true
		}
	}
	return next, ok
}

// drainRun runs to a horizon a few ties ahead and checks that every live
// event due by then fired and that the clock rests on the horizon.
func (s *orderScript) drainRun() {
	h := s.k.Now() + Time(s.rng.Intn(5))*time.Millisecond
	if end := s.k.Run(h); end != h {
		s.t.Fatalf("script %d: Run(%v) returned %v", s.script, h, end)
	}
	if next, ok := s.nextLive(); ok && next <= h {
		s.t.Fatalf("script %d: an event due at %v was left behind by Run(%v)", s.script, next, h)
	}
}

// drainSteps single-steps up to n events, checking each step against the
// model: Step fires exactly when a live event remains, and the clock lands
// on that event's deadline.
func (s *orderScript) drainSteps(n int) {
	for i := 0; i < n; i++ {
		want, wok := s.nextLive()
		if fired := s.k.Step(); fired != wok {
			s.t.Fatalf("script %d: Step = %v with a live event %v", s.script, fired, wok)
		}
		if !wok {
			return
		}
		if now := s.k.Now(); now != want {
			s.t.Fatalf("script %d: Step moved the clock to %v; model says %v", s.script, now, want)
		}
	}
}

// TestFiringMatchesReferenceOrder runs thousands of random scripts (ties,
// zero delays, all three scheduling entry points, handlers that schedule
// and cancel, compacting Stop bursts, Run and Step drains) and requires the
// fired sequence to be exactly the non-cancelled events sorted by (at,
// seq), the order the kernel promises.
func TestFiringMatchesReferenceOrder(t *testing.T) {
	const scripts = 2500
	rng := rand.New(rand.NewSource(20))
	compactions, fired := 0, 0
	for script := 0; script < scripts; script++ {
		s := &orderScript{t: t, script: script, k: NewKernel(int64(script)), rng: rng}
		for phase, phases := 0, 1+rng.Intn(4); phase < phases; phase++ {
			for n := rng.Intn(160); n > 0; n-- {
				s.schedule()
			}
			if rng.Intn(3) == 0 {
				s.burst()
			}
			if rng.Intn(2) == 0 {
				s.drainRun()
			} else {
				s.drainSteps(rng.Intn(60))
			}
		}
		if rng.Intn(2) == 0 {
			s.k.Run(time.Hour)
		} else {
			s.drainSteps(maxScriptEvents + 1)
		}
		var want []int
		for id, e := range s.events {
			if !e.cancelled {
				want = append(want, id)
			}
		}
		slices.SortFunc(want, func(a, b int) int {
			if c := cmp.Compare(s.events[a].at, s.events[b].at); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		if !slices.Equal(s.fired, want) {
			i := 0
			for i < len(want) && i < len(s.fired) && s.fired[i] == want[i] {
				i++
			}
			t.Fatalf("script %d: firing order departs from (at, seq) at position %d of %d (fired %d events, reference %d)",
				script, i, len(want), len(s.fired), len(want))
		}
		compactions += s.compactions
		fired += len(s.fired)
	}
	// The scripts must actually reach the paths they are meant to cover.
	if compactions < scripts/10 {
		t.Fatalf("only %d compactions over %d scripts", compactions, scripts)
	}
	t.Logf("%d scripts, %d events fired, %d compactions", scripts, fired, compactions)
}
