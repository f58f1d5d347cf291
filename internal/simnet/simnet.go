// Package simnet provides a deterministic discrete-event simulator used as
// the substrate for the simulated RDMA fabric and TCP transport.
//
// A Sim owns a virtual clock and a calendar queue of pending events (see
// calqueue.go). All protocol code in this repository is written against the
// simulated clock, which makes every experiment exactly reproducible from a
// seed: two runs with the same seed execute the same events in the same
// order and report identical latencies.
//
// The package also provides Proc, a simple CPU/process model that accounts
// for compute costs, models OS descheduling ("long-latency nodes" in the
// paper's terminology), and supports crash/recover fault injection.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"acuerdo/internal/trace"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to a time.Duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Sim is a discrete-event simulator with a virtual clock.
//
// Sim is not safe for concurrent use: the entire simulation is
// single-threaded by design, which is what makes it deterministic.
type Sim struct {
	now     Time
	q       calQueue
	seq     uint64
	rng     *rand.Rand
	seed    int64
	stopped bool
	tracer  *trace.Tracer
	procs   []*Proc

	// workFree recycles Proc.Run/RunAt callback records (see procWork).
	workFree []*procWork

	// Stats
	processed uint64
}

// New creates a simulator whose random number generator is seeded with seed.
func New(seed int64) *Sim {
	s := &Sim{rng: rand.New(rand.NewSource(seed)), seed: seed}
	s.q.init()
	return s
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Seed returns the seed the simulator was created with; harnesses stamp it
// into diagnostics (invariant-violation reports) so a finding carries its
// own reproduction recipe.
func (s *Sim) Seed() int64 { return s.seed }

// Rand returns the simulator's deterministic random number generator.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Processed reports the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// SetTracer installs a trace collector. Pass nil to disable tracing (the
// default); every layer fetches the tracer through Tracer() at emit time,
// and a nil tracer makes every emit a cheap no-op. Install the tracer
// before building transports and protocols on this Sim so that process
// names register with it.
func (s *Sim) SetTracer(t *trace.Tracer) { s.tracer = t }

// Tracer returns the installed trace collector, or nil when disabled.
func (s *Sim) Tracer() *trace.Tracer { return s.tracer }

// At schedules fn to run at time at. Scheduling in the past panics: that is
// always a logic error in a discrete-event model. A scheduled event always
// fires — there is no handle and nothing to cancel (DESIGN.md §6.5); a
// timer that may be overtaken re-checks a generation, timestamp or role in
// fn. With the slot free-list, steady-state scheduling allocates nothing.
func (s *Sim) At(at Time, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("simnet: scheduling event at %v before now %v", at, s.now))
	}
	s.seq++
	s.q.alloc(at, s.seq, fn)
}

// After schedules fn to run d after the current time.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now.Add(d), fn)
}

// PostAfter is a synonym of After, kept only because benchmark/workloads.go
// (frozen while this was renamed) calls it; delete it in the next benchmark PR.
func (s *Sim) PostAfter(d time.Duration, fn func()) { s.After(d, fn) }

// fire advances the clock to slot idx's timestamp and runs its callback.
// The slot is recycled before fn runs: fn may schedule new events, and
// letting them reuse the slot keeps the free-list small.
func (s *Sim) fire(idx int32) {
	sl := &s.q.slots[idx]
	s.now = sl.at
	s.processed++
	if s.tracer != nil {
		s.tracer.SimEvent(int64(sl.at), int64(sl.seq))
	}
	fn := sl.fn
	s.q.recycle(idx)
	fn()
}

// Step executes the next pending event and reports whether one existed.
func (s *Sim) Step() bool {
	idx, ok := s.q.popDue(maxTime)
	if !ok {
		return false
	}
	s.fire(idx)
	return true
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to t. No event with at > t runs, and the clock never exceeds t.
func (s *Sim) RunUntil(t Time) {
	for {
		idx, ok := s.q.popDue(t)
		if !ok {
			break
		}
		s.fire(idx)
		if s.stopped {
			s.stopped = false
			return
		}
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor runs the simulation for d of simulated time.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// Run executes events until none remain or Stop is called. Protocols with
// periodic timers never drain the queue; prefer RunUntil/RunFor for those.
func (s *Sim) Run() {
	for s.Step() {
		if s.stopped {
			s.stopped = false
			return
		}
	}
}

// Stop makes the currently executing Run/RunUntil call return after the
// current event completes.
func (s *Sim) Stop() { s.stopped = true }

// Procs returns every process ever created on this simulator, in creation
// order. Diagnostics only (the watchdog's stalled-process dump); mutating
// the returned slice is undefined.
func (s *Sim) Procs() []*Proc { return s.procs }

// Pending reports the number of scheduled, unfired events. The count is
// maintained at schedule/fire time, so calling it in a hot assertion loop
// is O(1).
func (s *Sim) Pending() int { return s.q.size }
