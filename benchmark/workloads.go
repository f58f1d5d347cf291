package main

import (
	"fmt"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/acuerdo"
	"acuerdo/internal/bench"
	"acuerdo/internal/chaos"
	"acuerdo/internal/observe"
	"acuerdo/internal/placement"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
	"acuerdo/internal/zab"
)

// workload is one fixed world-plus-load the benchmark runs. The names and
// parameters are the contract later PRs are judged by; see README.md for
// why each exists.
type workload struct {
	name, why string
	// msgSize sizes the kernel loops; layers names the packages the world
	// exercises, so a kernel of an untouched layer reports zero instead of
	// a number that cannot move this workload.
	msgSize int
	layers  []string
	// paperUS is the paper's figure commit_p50_us is set against (zero:
	// the paper reports none for this shape).
	paperUS float64
	// variants are the layers this world can switch, for the differential
	// pass; the base rep is the workload as specified.
	variants []variant
	run      func(o repOpts, sp *spanLog) (repResult, error)
}

// variant flips one layer that is a switch and names the overhead metric
// the flip yields. layerOn says which side of the comparison the variant
// is: tracing is off in the base rep, observers and disks are on.
type variant struct {
	name    string
	opts    repOpts
	metric  string
	layerOn bool
}

var tracedVariant = variant{name: "traced", opts: repOpts{traced: true}, metric: "trace.overhead_pct", layerOn: true}

var workloads = []workload{
	{
		name:    "acuerdo-lat",
		why:     "window 1, 10 B, 3 replicas: the paper's ~10 us headline; latency-bound, host cost is idle poll-loop dispatch",
		msgSize: 10, paperUS: 10,
		layers:   []string{"simnet", "rdma", "ringbuf", "sst", "acuerdo", "abcast", "trace", "metrics"},
		variants: []variant{tracedVariant},
		run:      ringRun(bench.Acuerdo, 3, 1, 10, 500*time.Millisecond),
	},
	{
		name:     "acuerdo-sat",
		why:      "window 256, 1000 B, 7 replicas: Figure 8d's knee; same rdma/ringbuf/sst layers bytes- and queue-bound",
		msgSize:  1000,
		layers:   []string{"simnet", "rdma", "ringbuf", "sst", "acuerdo", "abcast", "trace", "metrics"},
		variants: []variant{tracedVariant},
		run:      ringRun(bench.Acuerdo, 7, 256, 1000, 200*time.Millisecond),
	},
	{
		name:     "zab-tcp",
		why:      "ZooKeeper/Zab over tcpnet, window 64: bypasses every RDMA layer, so an RDMA-side change predicts no movement here",
		msgSize:  10,
		layers:   []string{"simnet", "tcpnet", "abcast", "trace", "metrics"},
		variants: []variant{tracedVariant},
		run:      ringRun(bench.Zookeeper, 3, 64, 10, 4*time.Second),
	},
	{
		name:    "failover-durable",
		why:     "open loop 100 kops/s through 3 torn-write leader power-cuts with WAL, disks and observers on: the fault path composed",
		msgSize: 16,
		layers:  []string{"simnet", "rdma", "ringbuf", "sst", "acuerdo", "abcast", "disk", "observe", "chaos", "trace", "metrics"},
		variants: []variant{
			tracedVariant,
			{name: "observers-off", opts: repOpts{noObserver: true}, metric: "observe.overhead_pct"},
			{name: "volatile", opts: repOpts{volatile: true}, metric: "disk.overhead_pct"},
		},
		run: failoverRun,
	},
	{
		name:    "placement-16pg",
		why:     "16 Acuerdo groups on a 12-node fleet, zipfian kvstore writes: the scale-out knee, shared CPUs, memory-heavy",
		msgSize: 100,
		layers:  []string{"simnet", "rdma", "ringbuf", "sst", "acuerdo", "abcast", "placement", "kvstore", "ycsb", "trace", "metrics"},
		// bench.NewPlacementWorld always installs a tracer: nothing to switch.
		run: placementRun,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) uses(layer string) bool {
	for _, l := range w.layers {
		if l == layer {
			return true
		}
	}
	return false
}

// repOpts selects one rep's variant. Every variant of a workload builds its
// world from the same seed.
type repOpts struct {
	seed  int64
	quick bool // 10x shorter simulated phases (tests)
	// traced installs trace.New(trace.FingerprintRing); verify feeds an
	// abcast.Checker from every replica's deliveries and taps every ack.
	traced, verify bool
	// Differential switches, failover-durable only.
	noObserver, volatile bool
}

// simResult is everything a rep reports on the simulated clock. It is a
// pure function of (workload, seed, quick), so reps compare with ==.
type simResult struct {
	committed      int
	p50, p99, mean float64       // commit latency, simulated ns (see quantile)
	elapsed        time.Duration // simulated length of the measured phase
	events         uint64        // Sim.Processed over the measured phase
}

func (s simResult) String() string {
	return fmt.Sprintf("committed=%d p50=%.1fns p99=%.1fns mean=%.1fns elapsed=%v events=%d",
		s.committed, s.p50, s.p99, s.mean, s.elapsed, s.events)
}

// verdict is the correctness gate's finding for one verified rep.
type verdict struct {
	attempted, failed int
	unavail           time.Duration
	witnesses         []string // empty when the rep is correct
}

func (v *verdict) fail(format string, args ...any) {
	v.witnesses = append(v.witnesses, fmt.Sprintf(format, args...))
}

// repResult is one rep on both clocks.
type repResult struct {
	sim                  simResult
	build, elect, warmup time.Duration
	pr                   *probe
	verdict              *verdict // verify reps only
	decomp               trace.Decomposition

	// failover-durable only.
	actions               int
	recovered, recoveries int
	mttrMean, mttrMax     time.Duration
	lagMax                time.Duration
	violations            int64

	// placement-16pg only.
	leaderImbalance, pgMinOverMax float64
}

func (r *repResult) measureWall() time.Duration { return r.pr.e.wall.Sub(r.pr.b.wall) }
func (r *repResult) setup() time.Duration       { return r.build + r.elect + r.warmup }

// Shared knobs of the correctness gate.
const (
	gapThreshold = 2 * time.Millisecond  // chaos.Unavailability threshold
	ackDeadline  = 50 * time.Millisecond // an op unacknowledged this long has failed
)

// deadlineFor caps the ack deadline at a tenth of the measured phase, so
// the short fault-free phases (30 ms at placement-16pg) still judge most of
// their ops instead of excluding all of them as "issued in the final 50 ms".
func deadlineFor(measure time.Duration) time.Duration {
	if d := measure / 10; d < ackDeadline {
		return d
	}
	return ackDeadline
}

// scaled shortens a simulated phase for -quick.
func scaled(d time.Duration, quick bool) time.Duration {
	if quick {
		return d / 10
	}
	return d
}

// elect runs the simulation until ready() holds, as bench.NewInstance does.
func elect(sim *simnet.Sim, what string, ready func() bool) error {
	for i := 0; i < 400 && !ready(); i++ {
		sim.RunFor(5 * time.Millisecond)
	}
	if !ready() {
		return fmt.Errorf("%s never became ready", what)
	}
	return nil
}

// ackTap wraps a system so that every submission and its acknowledgment
// are timestamped from outside it. It schedules nothing and draws no
// randomness, so a tapped rep's simulated results equal an untapped one's.
type ackTap struct {
	abcast.System
	sim         *simnet.Sim
	sent, acked []simnet.Time // per op, in submission order; acked -1 = never
	acks        *[]simnet.Time
}

func (t *ackTap) Submit(payload []byte, done func()) {
	i := len(t.sent)
	t.sent = append(t.sent, t.sim.Now())
	t.acked = append(t.acked, -1)
	t.System.Submit(payload, func() {
		t.acked[i] = t.sim.Now()
		*t.acks = append(*t.acks, t.sim.Now())
		if done != nil {
			done()
		}
	})
}

// judge counts the ops issued in [start, end-deadline] and how many of them
// went unacknowledged for longer than deadline.
func (v *verdict) judge(issued, acked []simnet.Time, start, end simnet.Time, deadline time.Duration) {
	for i, at := range issued {
		if at < start || at > end.Add(-deadline) {
			continue
		}
		v.attempted++
		if acked[i] < 0 || acked[i].Sub(at) > deadline {
			v.failed++
		}
	}
}

// checkDeliveries feeds a new abcast.Checker from every replica's deliveries,
// through the system's public OnDeliver field, and records the first
// violation in v. The caller reports each broadcast to the checker.
func checkDeliveries(inst *bench.Instance, nodes int, v *verdict) *abcast.Checker {
	checker := abcast.NewChecker(nodes)
	deliver := func(replica int, payload []byte) {
		if err := checker.OnDeliver(replica, abcast.MsgID(payload)); err != nil && len(v.witnesses) == 0 {
			v.fail("%v", err)
		}
	}
	switch c := inst.Sys.(type) {
	case *acuerdo.Cluster:
		c.OnDeliver = func(replica int, _ acuerdo.MsgHdr, payload []byte) { deliver(replica, payload) }
	case *zab.Cluster:
		c.OnDeliver = func(replica int, _ uint64, payload []byte) { deliver(replica, payload) }
	default:
		panic(fmt.Sprintf("benchmark: no delivery hook for %T", inst.Sys))
	}
	return checker
}

// acuerdoCounts sums the replicas' own counters over a set of instances.
func acuerdoCounts(insts []*bench.Instance, obs *observe.Observer) func() layerCounts {
	return func() layerCounts {
		var lc layerCounts
		for _, inst := range insts {
			if c := inst.AcuerdoCluster; c != nil {
				for _, r := range c.Replicas {
					lc.sstPushes += r.Stats.SSTPushes
					lc.accepts += r.Stats.Accepted
					lc.broadcasts += r.Stats.Broadcasts
					lc.elections += r.Stats.Elections
				}
			}
			for _, d := range inst.Disks {
				st := d.Stats()
				lc.diskWrites += st.Writes
				lc.diskFsyncs += st.Fsyncs
				lc.diskFsyncBytes += st.FsyncBytes
			}
			lc.diskRecovered += inst.DiskRecoveredBytes()
			lc.fabricRecovery += inst.FabricRecoveryBytes()
		}
		if obs != nil {
			lc.obsChecks = obs.Checks()
		}
		return lc
	}
}

// ringRun is the closed-loop single-ring shape shared by acuerdo-lat,
// acuerdo-sat and zab-tcp: one group on a private interconnect, volatile,
// driven by abcast.RunClosedLoop (the paper's window regulator).
func ringRun(kind bench.Kind, nodes, window, size int, measure time.Duration) func(repOpts, *spanLog) (repResult, error) {
	const warmup = 4 * time.Millisecond
	return func(o repOpts, sp *spanLog) (repResult, error) {
		var res repResult
		measure := scaled(measure, o.quick)

		pop := sp.push("build")
		sim := simnet.New(o.seed)
		var opt bench.Options
		if o.traced {
			opt.Tracer = trace.New(trace.FingerprintRing)
		}
		inst := bench.NewInstanceOn(sim, kind, nodes, opt)
		defer inst.Close()
		res.build = pop()

		pop = sp.push("elect")
		err := elect(sim, string(kind), inst.Sys.Ready)
		res.elect = pop()
		if err != nil {
			return res, err
		}

		sys := inst.Sys
		lc := abcast.LoadConfig{Window: window, MsgSize: size, Warmup: warmup, Measure: measure}
		var (
			v       *verdict
			checker *abcast.Checker
			tap     *ackTap
			acks    []simnet.Time
		)
		if o.verify {
			v = &verdict{}
			checker = checkDeliveries(inst, nodes, v)
			lc.OnSubmit = checker.OnBroadcast
			tap = &ackTap{System: sys, sim: sim, acks: &acks}
			sys = tap
		}

		res.pr = &probe{sim: sim, layers: acuerdoCounts([]*bench.Instance{inst}, nil)}
		res.pr.arm(warmup, measure)
		called := time.Now()
		load := abcast.RunClosedLoop(sim, sys, lc)
		res.warmup = sp.add("warmup", called, res.pr.b.wall)
		sp.add("measure", res.pr.b.wall, res.pr.e.wall)

		res.sim = simResult{committed: load.Committed, elapsed: load.Elapsed, events: res.pr.e.events - res.pr.b.events}
		res.sim.p50, res.sim.p99, res.sim.mean = latencyStats(load.Latency.Samples())
		if load.Decomp != nil {
			res.decomp = *load.Decomp
		}
		if o.verify {
			pop = sp.push("verify")
			if err := checker.CheckTotalOrder(); err != nil {
				v.fail("%v", err)
			}
			start, end := res.pr.b.simNow, res.pr.e.simNow
			v.judge(tap.sent, tap.acked, start, end, deadlineFor(measure))
			_, v.unavail = chaos.Unavailability(acks, start, end, gapThreshold)
			res.verdict = v
			pop()
		}
		return res, nil
	}
}

// restartHook makes a chaos.Target tell the checker about a restart before
// it happens: a durable replica re-delivers its recovered WAL prefix, which
// without the checker's replay window reads as duplication.
type restartHook struct {
	chaos.Target
	before func(i int)
}

func (t restartHook) Restart(i int) {
	t.before(i)
	t.Target.Restart(i)
}

// failoverRun is the fault path: three durable, observed Acuerdo replicas
// under an open-loop client while chaos.TornWriteRestart power-cuts the
// leader every 35 ms with a torn WAL tail and restarts it 10 ms later.
func failoverRun(o repOpts, sp *spanLog) (repResult, error) {
	const (
		nodes    = 3
		size     = 16
		interval = 10 * time.Microsecond // 100 kops/s, about a quarter of saturation
		settle   = 10 * time.Millisecond // fault-free load before the schedule: the warm-up
		drain    = 40 * time.Millisecond
		retry    = 50 * time.Microsecond // client readiness poll, as abcast.RunClosedLoop
	)
	// Three strikes (35, 70, 105 ms), one per replica; see the README for
	// why the horizon stops short of a replica's second power-cut.
	horizon := 120 * time.Millisecond
	if o.quick {
		horizon = 47 * time.Millisecond // still one strike
	}
	measure := horizon + drain
	var res repResult

	pop := sp.push("build")
	sim := simnet.New(o.seed)
	opt := bench.Options{Durability: bench.Durable}
	if o.volatile {
		opt.Durability = bench.Volatile
	}
	if o.traced {
		opt.Tracer = trace.New(trace.FingerprintRing)
		sim.SetTracer(opt.Tracer) // before the observer is built, as bench.RunPoint does
	}
	var obs *observe.Observer
	if !o.noObserver {
		obs = bench.NewObserver(sim, bench.Acuerdo, nodes)
		opt.Observer = obs
	}
	inst := bench.NewInstanceOn(sim, bench.Acuerdo, nodes, opt)
	defer inst.Close()
	res.build = pop()

	pop = sp.push("elect")
	err := elect(sim, "failover-durable", inst.Sys.Ready)
	res.elect = pop()
	if err != nil {
		return res, err
	}

	sys, tr := inst.Sys, sim.Tracer()
	target := inst.ChaosTarget()
	var (
		v       *verdict
		checker *abcast.Checker
	)
	if o.verify {
		v = &verdict{}
		checker = checkDeliveries(inst, nodes, v)
		target = restartHook{Target: target, before: checker.NodeRestart}
	}

	// Open-loop client. A request due while no leader serves waits in the
	// client's queue and is timed from its due time all the same.
	var (
		due, acked []simnet.Time
		acks       []simnet.Time
		queue      []int
		measuring  bool
		tick       func()
		flush      func()
	)
	end := sim.Now().Add(settle + measure)
	submit := func(i int) {
		if lag := sim.Now().Sub(due[i]); lag > res.lagMax {
			res.lagMax = lag
		}
		payload := make([]byte, size)
		id := uint64(i + 1)
		abcast.PutMsgID(payload, id)
		if checker != nil {
			checker.OnBroadcast(id)
		}
		tr.Instant(trace.KSubmit, -1, int64(due[i]), int64(id), 0)
		tr.Add(trace.CtrSubmits, 1)
		sys.Submit(payload, func() {
			acked[i] = sim.Now()
			acks = append(acks, sim.Now())
			if measuring {
				tr.Instant(trace.KAck, -1, int64(sim.Now()), int64(id), 0)
				tr.Add(trace.CtrAcks, 1)
			}
		})
	}
	flush = func() {
		if !sys.Ready() {
			sim.PostAfter(retry, flush)
			return
		}
		for _, i := range queue {
			submit(i)
		}
		queue = queue[:0]
	}
	tick = func() {
		i := len(due)
		due = append(due, sim.Now())
		acked = append(acked, -1)
		switch {
		case len(queue) > 0:
			queue = append(queue, i)
		case !sys.Ready():
			queue = append(queue, i)
			sim.PostAfter(retry, flush)
		default:
			submit(i)
		}
		if sim.Now().Add(interval) <= end {
			sim.PostAfter(interval, tick)
		}
	}

	pop = sp.push("warmup")
	tick()
	sim.RunFor(settle)
	res.warmup = pop()

	plan := chaos.TornWriteRestart(35*time.Millisecond, 10*time.Millisecond).Build(sim.Rand(), nodes, horizon)
	if err := plan.Validate(nodes); err != nil {
		return res, err
	}
	engine := chaos.NewEngine(sim, target)
	engine.Schedule(sim.Now(), plan)

	res.pr = &probe{sim: sim, layers: acuerdoCounts([]*bench.Instance{inst}, obs)}
	pop = sp.push("measure")
	res.pr.begin()
	measuring = true
	sim.RunFor(measure)
	measuring = false
	res.pr.end()
	pop()

	start, stop := res.pr.b.simNow, res.pr.e.simNow
	var lat []time.Duration
	for i, at := range acked {
		if at > start && at <= stop {
			lat = append(lat, at.Sub(due[i]))
		}
	}
	res.sim = simResult{committed: len(lat), elapsed: stop.Sub(start), events: res.pr.e.events - res.pr.b.events}
	res.sim.p50, res.sim.p99, res.sim.mean = latencyStats(lat)
	res.decomp = tr.Decompose()

	// Fail-over times come from the ack stream only (chaos.Recoveries
	// refined by the outage window each fault opened, as bench.RunScenario
	// does); Replica.WonAt-SuspectedAt goes negative after a restart and
	// feeds nothing here.
	fired := engine.Fired()
	res.actions = len(fired)
	windows, unavail := chaos.Unavailability(acks, start, stop, gapThreshold)
	recs := chaos.Recoveries(fired, acks)
	var mttrSum time.Duration
	for i := range recs {
		f := recs[i].Fault
		for _, w := range windows {
			if w.To < f.At || w.From > f.At.Add(2*gapThreshold) {
				continue
			}
			recs[i].MTTR = w.To.Sub(f.At)
			recs[i].Recovered = len(acks) > 0 && acks[len(acks)-1] >= w.To
			break
		}
		if recs[i].Recovered {
			res.recovered++
			mttrSum += recs[i].MTTR
			if recs[i].MTTR > res.mttrMax {
				res.mttrMax = recs[i].MTTR
			}
		}
	}
	res.recoveries = len(recs)
	if res.recovered > 0 {
		res.mttrMean = mttrSum / time.Duration(res.recovered)
	}
	if obs != nil {
		res.violations = obs.ViolationCount()
	}

	if o.verify {
		pop = sp.push("verify")
		if err := checker.CheckTotalOrder(); err != nil {
			v.fail("%v", err)
		}
		if res.violations > 0 {
			v.fail("%d observer violations:\n%s", res.violations, obs.Report())
		}
		v.judge(due, acked, start, stop, deadlineFor(measure))
		v.unavail = unavail
		res.verdict = v
		pop()
	}
	return res, nil
}

// placementRun is the multi-group world: bench.DefaultPlacement(Acuerdo, 16)
// on one simulator, driven by bench.RunPlacementLoad. That harness always
// installs a tracer and an abcast.Checker per group; the benchmark records
// that rather than hiding it.
func placementRun(o repOpts, sp *spanLog) (repResult, error) {
	var res repResult
	cfg := bench.DefaultPlacement(bench.Acuerdo, 16)
	cfg.Seed = o.seed
	cfg.Measure = scaled(30*time.Millisecond, o.quick)

	pop := sp.push("build")
	m, err := placement.Build(cfg.Placement)
	if err != nil {
		pop()
		return res, err
	}
	w := bench.NewPlacementWorld(cfg.Kind, m, cfg.Seed, false)
	defer w.Close()
	res.build = pop()

	pop = sp.push("elect")
	err = elect(w.Sim, "placement-16pg", w.Ready)
	res.elect = pop()
	if err != nil {
		return res, err
	}

	var (
		taps []*ackTap
		acks []simnet.Time
	)
	if o.verify {
		for _, inst := range w.Insts {
			tap := &ackTap{System: inst.Sys, sim: w.Sim, acks: &acks}
			inst.Sys = tap // RunPlacementLoad submits through inst.Sys
			taps = append(taps, tap)
		}
	}

	res.pr = &probe{sim: w.Sim, layers: acuerdoCounts(w.Insts, nil)}
	res.pr.arm(cfg.Warmup, cfg.Measure)
	called := time.Now()
	load := bench.RunPlacementLoad(w, cfg)
	res.warmup = sp.add("warmup", called, res.pr.b.wall)
	sp.add("measure", res.pr.b.wall, res.pr.e.wall)

	res.sim = simResult{committed: load.Committed, elapsed: load.Elapsed, events: res.pr.e.events - res.pr.b.events}
	res.sim.p50, res.sim.p99, res.sim.mean = latencyStats(load.Latency.Samples())
	res.pgMinOverMax = load.MinPGOps() / load.MaxPGOps()
	leaders, maxLeaders := m.LeaderCounts(), 0
	for _, n := range leaders {
		if n > maxLeaders {
			maxLeaders = n
		}
	}
	res.leaderImbalance = float64(maxLeaders) * float64(len(leaders)) / float64(m.Config.PGs)

	if o.verify {
		pop = sp.push("verify")
		v := &verdict{}
		for pg := range load.Groups {
			if err := load.Groups[pg].SafetyErr; err != nil {
				v.fail("pg %d: %v", pg, err)
			}
		}
		start, end := res.pr.b.simNow, res.pr.e.simNow
		for _, tap := range taps {
			v.judge(tap.sent, tap.acked, start, end, deadlineFor(cfg.Measure))
		}
		_, v.unavail = chaos.Unavailability(acks, start, end, gapThreshold)
		res.verdict = v
		pop()
	}
	return res, nil
}
