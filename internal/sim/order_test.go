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
	at    Time
	fired bool
}

// orderScript drives a kernel through one random script and mirrors every
// scheduled event in a brute-force model.
type orderScript struct {
	t      *testing.T
	script int
	k      *Kernel
	rng    *rand.Rand
	events []refEvent
	fired  []int // event indexes in firing order
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
	delay := Time(s.rng.Intn(4)) * time.Millisecond
	if s.rng.Intn(2) == 0 {
		s.k.Schedule(delay, func() { s.fire(id) })
	} else {
		s.k.ScheduleRunner(delay, &scriptRunner{s: s, id: id})
	}
	s.events = append(s.events, refEvent{at: s.k.Now() + delay})
}

// fire is every event's handler: it checks the event against the model and
// sometimes schedules further events.
func (s *orderScript) fire(id int) {
	e := &s.events[id]
	if e.fired {
		s.t.Fatalf("script %d: event %d fired again", s.script, id)
	}
	if now := s.k.Now(); now != e.at {
		s.t.Fatalf("script %d: event %d fired at %v, scheduled for %v", s.script, id, now, e.at)
	}
	e.fired = true
	s.fired = append(s.fired, id)
	for len(s.events) < maxScriptEvents && s.rng.Intn(3) == 0 {
		s.schedule()
	}
}

// nextLive returns the earliest deadline among events not yet fired.
func (s *orderScript) nextLive() (Time, bool) {
	var next Time
	ok := false
	for _, e := range s.events {
		if !e.fired && (!ok || e.at < next) {
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

// drainSteps single-steps up to n events (all of them when n < 0),
// checking each step against the model: Step fires exactly when a live
// event remains, and the clock lands on that event's deadline.
func (s *orderScript) drainSteps(n int) {
	for i := 0; n < 0 || i < n; i++ {
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
// zero delays, both scheduling entry points, handlers that schedule, Run
// and Step drains) and requires the fired sequence to be exactly every
// scheduled event sorted by (at, seq), the order the kernel promises.
func TestFiringMatchesReferenceOrder(t *testing.T) {
	const scripts = 2500
	rng := rand.New(rand.NewSource(20))
	fired := 0
	for script := 0; script < scripts; script++ {
		s := &orderScript{t: t, script: script, k: NewKernel(int64(script)), rng: rng}
		for phase, phases := 0, 1+rng.Intn(4); phase < phases; phase++ {
			for n := rng.Intn(160); n > 0; n-- {
				s.schedule()
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
			s.drainSteps(-1)
		}
		want := make([]int, len(s.events))
		for id := range want {
			want[id] = id
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
		fired += len(s.fired)
	}
	t.Logf("%d scripts, %d events fired", scripts, fired)
}
