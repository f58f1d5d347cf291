package simnet

import (
	"fmt"
	"time"

	"acuerdo/internal/trace"
)

// DeschedConfig injects OS-scheduler pauses into a Proc: roughly every
// Interval of CPU time the process is descheduled for Pause. The paper's
// §4.2 attributes election-duration growth to such "long-latency" nodes;
// all experiments inject a background level of this noise.
type DeschedConfig struct {
	Interval Dist
	Pause    Dist
}

// Proc models one process pinned to one CPU core. Work is submitted with Run
// and executes after the CPU becomes free plus the work's compute cost; the
// model therefore captures queueing at a saturated CPU, which is what
// produces the latency "knee" in the Figure 8 experiments.
//
// A Proc can be crashed (all pending and future work is dropped), recovered,
// and descheduled.
type Proc struct {
	Sim  *Sim
	ID   int
	Name string

	busyUntil Time
	alive     bool
	epoch     uint64 // incremented on crash; stale callbacks are dropped

	desched     *DeschedConfig
	nextDesched Time

	// busyTime accumulates CPU time consumed, for utilization reporting.
	busyTime time.Duration
}

// NewProc creates a live process.
func NewProc(s *Sim, id int, name string) *Proc {
	s.tracer.SetThreadName(id, name)
	p := &Proc{Sim: s, ID: id, Name: name, alive: true}
	s.procs = append(s.procs, p)
	return p
}

// SetDesched installs (or clears, with nil) a descheduling model. The first
// deschedule point is sampled from the interval distribution.
func (p *Proc) SetDesched(cfg *DeschedConfig) {
	p.desched = cfg
	if cfg != nil {
		p.nextDesched = p.Sim.Now().Add(cfg.Interval.Sample(p.Sim.Rand()))
	}
}

// Alive reports whether the process has not crashed.
func (p *Proc) Alive() bool { return p.alive }

// Crash stops the process: every queued and future callback scheduled through
// this Proc is silently dropped until Recover is called.
func (p *Proc) Crash() {
	p.alive = false
	p.epoch++
	p.Sim.tracer.Instant(trace.KProcCrash, p.ID, int64(p.Sim.Now()), int64(p.epoch), 0)
}

// Recover restarts a crashed process with an idle CPU.
func (p *Proc) Recover() {
	p.alive = true
	p.busyUntil = p.Sim.Now()
	if p.desched != nil {
		p.nextDesched = p.Sim.Now().Add(p.desched.Interval.Sample(p.Sim.Rand()))
	}
	p.Sim.tracer.Instant(trace.KProcRecover, p.ID, int64(p.Sim.Now()), int64(p.epoch), 0)
}

// Pause deschedules the process for d starting now (on top of queued work):
// the CPU is held and does nothing, so BusyTime does not move.
func (p *Proc) Pause(d time.Duration) {
	now := p.Sim.Now()
	if p.busyUntil < now {
		p.busyUntil = now
	}
	p.busyUntil = p.busyUntil.Add(d)
}

// Charge books d of CPU time for work the running callback did inline (a
// protocol's per-message cost). It holds the CPU exactly as Pause does and
// counts d as consumed in BusyTime; it traces and schedules nothing.
func (p *Proc) Charge(d time.Duration) {
	p.Pause(d)
	p.busyTime += d
}

// BusyUntil returns the time at which the CPU becomes free.
func (p *Proc) BusyUntil() Time { return p.busyUntil }

// BusyTime returns the total CPU time consumed so far.
func (p *Proc) BusyTime() time.Duration { return p.busyTime }

// acquire computes when work submitted now can begin, applying descheduling.
func (p *Proc) acquire() Time {
	start := p.Sim.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	if p.desched != nil {
		for start >= p.nextDesched {
			pause := p.desched.Pause.Sample(p.Sim.Rand())
			end := p.nextDesched.Add(pause)
			if start < end {
				start = end
			}
			if tr := p.Sim.tracer; tr != nil {
				tr.Span(trace.KProcDesched, p.ID, int64(p.nextDesched), int64(pause), 0, 0)
				tr.Add(trace.CtrDeschedTime, int64(pause))
			}
			p.nextDesched = end.Add(p.desched.Interval.Sample(p.Sim.Rand()))
		}
	}
	return start
}

// procWork is the state of one pending Run or RunAt callback: what the
// closure each call used to allocate captured. Records are free-listed on the
// Sim and fire is bound once, when the record is created, so steady-state
// submission allocates nothing.
type procWork struct {
	p     *Proc
	epoch uint64
	fn    func()
	begin bool          // RunAt: firing starts Run(cost, fn) instead of calling fn
	cost  time.Duration // RunAt only
	fire  func()        // bound to run
}

// post schedules w's work at time at, pinned to p's current epoch.
func (p *Proc) post(at Time, fn func(), begin bool, cost time.Duration) {
	var w *procWork
	if n := len(p.Sim.workFree); n > 0 {
		w = p.Sim.workFree[n-1]
		p.Sim.workFree = p.Sim.workFree[:n-1]
	} else {
		w = &procWork{}
		w.fire = w.run
	}
	w.p, w.epoch, w.fn, w.begin, w.cost = p, p.epoch, fn, begin, cost
	p.Sim.At(at, w.fire)
}

// run recycles w, dropping its references, before the callback runs (as
// Sim.fire does with event slots, so a callback that submits work again
// reuses w), and drops the work if the process crashed since submission.
func (w *procWork) run() {
	p, fn, begin, cost := w.p, w.fn, w.begin, w.cost
	live := p.alive && p.epoch == w.epoch
	w.p, w.fn = nil, nil
	p.Sim.workFree = append(p.Sim.workFree, w)
	if !live {
		return
	}
	if begin {
		p.Run(cost, fn)
	} else {
		fn()
	}
}

// Run submits work costing cost of CPU time; fn runs when the work completes.
// Work is executed in submission order. If the process crashes before the
// work completes, fn never runs. Run returns the completion time.
//
// fn may be nil to account for cost only: the CPU window is booked
// (BusyUntil, BusyTime, the trace span) and the completion time returned,
// but no event is scheduled, because there is nothing to run at that time.
// Verb posts (rdma.QP, tcpnet.Conn.Send) are this case.
func (p *Proc) Run(cost time.Duration, fn func()) Time {
	if !p.alive {
		return p.Sim.Now()
	}
	if cost < 0 {
		panic(fmt.Sprintf("simnet: negative cost %v", cost))
	}
	start := p.acquire()
	done := start.Add(cost)
	p.busyUntil = done
	p.busyTime += cost
	if tr := p.Sim.tracer; tr != nil {
		tr.Span(trace.KProcRun, p.ID, int64(start), int64(cost), 0, 0)
		tr.Add(trace.CtrProcTime, int64(cost))
	}
	if fn != nil {
		p.post(done, fn, false, 0)
	}
	return done
}

// RunAt is like Run but the work cannot begin before at (used for work
// triggered by a future external event, e.g. a NIC completion).
func (p *Proc) RunAt(at Time, cost time.Duration, fn func()) {
	if !p.alive {
		return
	}
	if at < p.Sim.Now() {
		at = p.Sim.Now()
	}
	p.post(at, fn, true, cost)
}

// PollLoop runs poll every interval of idle time, charging cost per
// iteration, until the process crashes: a loop ends with its CPU and there
// is nothing to stop it by hand (whoever restarts the process arms a new
// one). Polling is how all RDMA receivers discover incoming writes: the
// loop body drains whatever has accumulated, which is exactly the paper's
// receiver-side batching model.
//
// Scheduling is batched: the classic shape costs two simulator events per
// iteration (a wake-up that submits Run, then Run's completion). Poll
// iterations are strictly sequential and pollers are idle between
// iterations almost always, so the loop instead posts one event directly
// at the iteration's completion time D = wake+cost and charges the CPU
// window [D-cost, D) retroactively when it fires. The optimistic claim is
// checked at fire time: if any other work started on the CPU after the
// poll's intended start (busyUntil moved past it), or a deschedule point
// fell due, the iteration falls back to the classic acquire-based Run —
// the poller yields to whatever claimed the CPU and re-runs behind it, so
// the core never double-books. Every path is a pure function of simulated
// state, so determinism is unaffected; the fast path halves the
// event-dispatch volume of poll-dominated runs.
func (p *Proc) PollLoop(interval, cost time.Duration, poll func()) {
	epoch := p.epoch
	var body func()
	var fire func()
	// body is the poll iteration itself: trace, drain, rearm.
	body = func() {
		if tr := p.Sim.tracer; tr != nil {
			tr.Instant(trace.KPoll, p.ID, int64(p.Sim.Now()), 0, 0)
			tr.Add(trace.CtrPolls, 1)
			tr.Add(trace.CtrPollTime, int64(cost))
		}
		poll()
		// Optimistic rearm: one event at the next completion time.
		p.Sim.After(interval+cost, fire)
	}
	// fire runs at the optimistic completion time D and validates the
	// claimed window [D-cost, D) before accounting it.
	fire = func() {
		if !p.alive || p.epoch != epoch {
			return
		}
		d := p.Sim.Now()
		start := d.Add(-cost)
		if p.busyUntil > start || (p.desched != nil && start >= p.nextDesched) {
			// The CPU was claimed (or a deschedule fell due) inside the
			// optimistic window: redo this iteration behind the queue.
			p.Run(cost, body)
			return
		}
		p.busyUntil = d
		p.busyTime += cost
		if tr := p.Sim.tracer; tr != nil {
			tr.Span(trace.KProcRun, p.ID, int64(start), int64(cost), 0, 0)
			tr.Add(trace.CtrProcTime, int64(cost))
		}
		body()
	}
	// First iteration goes through the classic path: the CPU may already
	// be busy at arm time, and acquire() owns that arithmetic.
	if p.alive {
		p.Run(cost, body)
	}
}
