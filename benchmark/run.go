package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"acuerdo/internal/trace"
)

// Rep counts. Only the number of whole timed reps follows the clock (the
// driver asks for a run of a given length); everything a rep does, and
// every other pass, is a fixed amount of simulated work.
const (
	warmupReps   = 2 // rep 0 maps the heap and the MR free lists, rep 1 touches their pages; both discarded
	minTimedReps = 5 // host metrics are never reported over fewer
	layerReps    = 5 // per-layer pass: base reps, and reps of each differential variant
	quickReps    = 2
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // wall budget of the timed reps
	quick   bool
	log     io.Writer // human-readable progress and metric lines
}

// outcome is what one pass over one workload reports.
type outcome struct {
	metrics           *stats
	attempted, failed int
	witnesses         []string
}

func (o *outcome) correct() bool { return len(o.witnesses) == 0 }

// runner drives one workload's reps and holds them to one simulated result.
type runner struct {
	w   *workload
	cfg runConfig
	sp  *spanLog
	out *outcome
	ref *simResult // the first full-length rep's result; every later one must equal it
}

// rep runs one variant under a named span. Volatile reps run a different
// world and are exempt from the identity check; every other variant must
// leave the simulated results exactly as they were (tracing purity,
// observer purity, tap purity and plain repeatability in one rule).
func (r *runner) rep(name string, o repOpts) (repResult, error) {
	o.seed = r.cfg.seed
	o.quick = o.quick || r.cfg.quick
	runtime.GC()
	pop := r.sp.push(name)
	res, err := r.w.run(o, r.sp)
	pop()
	if err != nil {
		return res, fmt.Errorf("%s %s rep: %w", r.w.name, name, err)
	}
	if res.sim.committed == 0 {
		return res, fmt.Errorf("%s %s rep committed nothing", r.w.name, name)
	}
	if !o.volatile {
		if r.ref == nil {
			r.ref = &res.sim
		} else if *r.ref != res.sim {
			r.out.witnesses = append(r.out.witnesses, fmt.Sprintf(
				"%s: simulated results differ between reps of one seed:\n  first: %v\n  %s: %v", r.w.name, *r.ref, name, res.sim))
		}
	}
	if v := res.verdict; v != nil {
		r.out.attempted, r.out.failed = v.attempted, v.failed
		r.out.witnesses = append(r.out.witnesses, v.witnesses...)
		if v.failed > 0 {
			r.out.witnesses = append(r.out.witnesses, fmt.Sprintf(
				"%s: %d of %d ops went unacknowledged past the deadline", r.w.name, v.failed, v.attempted))
		}
	}
	return res, nil
}

func (r *runner) warm() error {
	n := warmupReps
	if r.cfg.quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		if _, err := r.rep("warm", repOpts{quick: true}); err != nil {
			return err
		}
	}
	r.ref = nil // a shortened warm-up rep is no reference for the full ones
	return nil
}

// hostSamples are the per-rep host measurements of a set of reps.
type hostSamples struct {
	usPerCommit, allocs, bytes, setup []float64
	build, elect, warmup              []float64
	cpuUS, gcCycles, gcFrac, nsPerEv  []float64
}

func (h *hostSamples) add(r *repResult) {
	c := float64(r.sim.committed)
	b, e := &r.pr.b, &r.pr.e
	h.usPerCommit = append(h.usPerCommit, float64(r.measureWall())/1e3/c)
	h.allocs = append(h.allocs, float64(e.mallocs-b.mallocs)/c)
	h.bytes = append(h.bytes, float64(e.bytes-b.bytes)/c)
	h.setup = append(h.setup, r.setup().Seconds())
	h.build = append(h.build, r.build.Seconds())
	h.elect = append(h.elect, r.elect.Seconds())
	h.warmup = append(h.warmup, r.warmup.Seconds())
	h.cpuUS = append(h.cpuUS, float64(e.cpu-b.cpu)/1e3/c)
	h.gcCycles = append(h.gcCycles, float64(e.gcCycles-b.gcCycles))
	if d := e.totalCPU - b.totalCPU; d > 0 {
		h.gcFrac = append(h.gcFrac, (e.gcCPU-b.gcCPU)/d)
	} else {
		h.gcFrac = append(h.gcFrac, 0)
	}
	h.nsPerEv = append(h.nsPerEv, float64(r.measureWall())/float64(r.sim.events))
}

// runEndToEnd is the --trace 0 pass: warm-up reps, timed reps with tracing
// off until the wall budget is spent, then one verified rep that carries
// the correctness gate. The verified rep runs last so that its checker and
// ack tap stay out of the timed reps' heap and out of the peak RSS.
func runEndToEnd(w *workload, cfg runConfig, sp *spanLog) (*outcome, error) {
	out := &outcome{metrics: newStats(endToEnd)}
	r := &runner{w: w, cfg: cfg, sp: sp, out: out}
	if err := r.warm(); err != nil {
		return nil, err
	}

	var h hostSamples
	var last repResult
	began := time.Now()
	for i := 0; ; i++ {
		if cfg.quick && i == quickReps {
			break
		}
		if !cfg.quick && i >= minTimedReps && time.Since(began).Seconds() >= cfg.seconds {
			break
		}
		res, err := r.rep("timed", repOpts{})
		if err != nil {
			return nil, err
		}
		h.add(&res)
		last = res
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	if _, err := r.rep("verified", repOpts{verify: true}); err != nil {
		return nil, err
	}

	m := out.metrics
	m.set("commit_p50_us", last.sim.p50/1e3)
	m.set("commit_p99_us", last.sim.p99/1e3)
	m.set("commit_mean_us", last.sim.mean/1e3)
	m.set("commit_rate_kops", float64(last.sim.committed)/last.sim.elapsed.Seconds()/1e3)
	m.setFastest("host_us_per_commit", h.usPerCommit)
	m.setMedian("host_allocs_per_commit", h.allocs)
	m.setMedian("host_bytes_per_commit", h.bytes)
	m.set("host_peak_rss_mb", rss)
	m.setMedian("setup_s", h.setup)
	m.complete()
	fmt.Fprintf(cfg.log, "# %s: %d commit-latency samples per rep, %d timed reps, rep spread %.2f%% (IQR/median of host_us_per_commit)\n",
		w.name, last.sim.committed, len(h.usPerCommit), 100*spread(h.usPerCommit))
	fmt.Fprintf(cfg.log, "# %s: host_us_per_commit by rep: %.4f\n", w.name, h.usPerCommit)
	return out, nil
}

// runPerLayer is the --trace 1 pass: untraced base reps interleaved with
// the differential variants (each layer that is a switch, flipped), one
// traced and verified rep that supplies every count and simulated per-layer
// metric, and the kernel loops.
func runPerLayer(w *workload, cfg runConfig, sp *spanLog) (*outcome, error) {
	out := &outcome{metrics: newStats(perLayer)}
	r := &runner{w: w, cfg: cfg, sp: sp, out: out}
	m := out.metrics
	if err := r.warm(); err != nil {
		return nil, err
	}

	us := make([][]float64, len(w.variants)) // host_us_per_commit per variant, per rep
	rounds := layerReps
	if cfg.quick {
		rounds = quickReps
	}
	var base hostSamples
	popPass := sp.push("differential")
	for round := 0; round < rounds; round++ {
		res, err := r.rep("base", repOpts{})
		if err != nil {
			return nil, err
		}
		base.add(&res)
		for i, v := range w.variants {
			res, err := r.rep(v.name, v.opts)
			if err != nil {
				return nil, err
			}
			us[i] = append(us[i], float64(res.measureWall())/1e3/float64(res.sim.committed))
		}
	}
	popPass()
	baseUS := fastest(base.usPerCommit)
	for i, v := range w.variants {
		on, off := fastest(us[i]), baseUS
		if !v.layerOn {
			on, off = off, on
		}
		pct := 100 * (on - off) / off
		m.set(v.metric, pct)
		fmt.Fprintf(cfg.log, "# %s: %s = %.2f%% from host_us_per_commit %.4f with the layer vs %.4f without (fastest of %d base and %d %s reps)\n",
			w.name, v.metric, pct, on, off, rounds, rounds, v.name)
	}

	popPass = sp.push("traced")
	tr, err := r.rep("traced+verified", repOpts{traced: true, verify: true})
	popPass()
	if err != nil {
		return nil, err
	}
	fillLayerMetrics(m, w, &tr, out)

	m.setFastest("simnet.host_ns_per_event", base.nsPerEv)
	m.setMedian("bench.build_s", base.build)
	m.setMedian("bench.elect_s", base.elect)
	m.setMedian("bench.warmup_s", base.warmup)
	m.setFastest("bench.cpu_us_per_commit", base.cpuUS)
	m.setMedian("bench.gc_cycles", base.gcCycles)
	m.setMedian("bench.gc_cpu_frac", base.gcFrac)
	m.set("bench.rep_spread_pct", 100*spread(base.usPerCommit))

	if !cfg.quick {
		popPass = sp.push("kernels")
		for _, k := range kernels {
			if !w.uses(k.layer) {
				continue
			}
			ns, allocs, aux := runKernel(k, w.msgSize, sp)
			m.set(k.ns, ns)
			if k.allocs != "" {
				m.set(k.allocs, allocs)
			}
			if k.aux != "" {
				m.set(k.aux, aux)
			}
		}
		if w.uses("placement") {
			m.set("placement.build_host_us", placementBuildUS(sp))
		}
		popPass()
	}
	m.complete()
	return out, nil
}

// fillLayerMetrics fills the count and simulated-clock per-layer metrics from the
// traced and verified rep: tracer counters and the layers' own counters,
// each as its growth over the measured phase.
func fillLayerMetrics(m *stats, w *workload, r *repResult, out *outcome) {
	commits := float64(r.sim.committed)
	per := func(name string, c trace.Counter) { m.set(name, r.pr.ctrDelta(c)/commits) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	lb, le := r.pr.b.layers, r.pr.e.layers

	m.set("simnet.events_per_commit", float64(r.sim.events)/commits)
	per("simnet.polls_per_commit", trace.CtrPolls)
	m.set("simnet.poll_cpu_frac", ratio(r.pr.ctrDelta(trace.CtrPollTime), r.pr.ctrDelta(trace.CtrProcTime)))
	m.set("simnet.proc_busy_max_frac", r.pr.busyMaxFrac())

	per("rdma.writes_per_commit", trace.CtrRDMAWrites)
	per("rdma.cqes_per_commit", trace.CtrCQEs)
	m.set("rdma.sig_skip_ratio", ratio(r.pr.ctrDelta(trace.CtrSigSkips), r.pr.ctrDelta(trace.CtrRDMAWrites)))
	per("rdma.wire_bytes_per_commit", trace.CtrRDMABytes)
	per("rdma.wire_ns_per_commit", trace.CtrRDMAWireTime)
	per("rdma.post_cpu_ns_per_commit", trace.CtrRDMAPostTime)

	per("tcpnet.msgs_per_commit", trace.CtrTCPMsgs)
	per("tcpnet.bytes_per_commit", trace.CtrTCPBytes)
	per("tcpnet.wakeups_per_commit", trace.CtrTCPWakeups)
	per("tcpnet.send_cpu_ns_per_commit", trace.CtrTCPSendTime)

	pushes := float64(le.sstPushes - lb.sstPushes)
	m.set("sst.pushes_per_commit", pushes/commits)
	// A leader counts its own proposal as accepted; the pushes are the
	// followers', so only their acceptances belong in the batch depth.
	m.set("acuerdo.accepts_per_push", ratio(float64(le.accepts-lb.accepts)-float64(le.broadcasts-lb.broadcasts), pushes))
	m.set("acuerdo.elections", float64(le.elections-lb.elections))
	m.set("acuerdo.disk_recovered_bytes", float64(le.diskRecovered-lb.diskRecovered))
	m.set("acuerdo.fabric_recovery_bytes", float64(le.fabricRecovery-lb.fabricRecovery))

	// trace.Decompose keys messages by id alone, and the sixteen groups of
	// placement-16pg reuse the same ids, so that world has no decomposition.
	if d := r.decomp; d.Messages > 0 && w.name != "placement-16pg" {
		n := float64(d.Messages) * 1e3
		post, wire, proto, ack := float64(d.PostNS)/n, float64(d.WireNS)/n, float64(d.ProtoNS)/n, float64(d.AckNS)/n
		m.set("abcast.stage_post_us", post)
		m.set("abcast.stage_wire_us", wire)
		m.set("abcast.stage_proto_us", proto)
		m.set("abcast.stage_ack_us", ack)
		// The four stages must telescope to the mean commit latency. Under
		// faults some acknowledged messages miss a marker (d.Partial: a
		// proposal re-committed by a new leader's diff), so there the check
		// is against the mean of the decomposed messages themselves.
		mean := r.sim.mean / 1e3
		if w.name == "failover-durable" {
			mean = float64(d.TotalNS) / n
		}
		if sum := post + wire + proto + ack; sum < 0.99*mean || sum > 1.01*mean {
			out.witnesses = append(out.witnesses, fmt.Sprintf(
				"%s: abcast.stage_* sum to %.4f us but the mean commit latency is %.4f us (%d messages, %d partial)",
				w.name, sum, mean, d.Messages, d.Partial))
		}
	}
	if v := r.verdict; v != nil && v.attempted > 0 {
		m.set("abcast.failed_frac", float64(v.failed)/float64(v.attempted))
		m.set("chaos.unavail_ms", float64(v.unavail)/1e6)
	}

	m.set("disk.writes_per_commit", float64(le.diskWrites-lb.diskWrites)/commits)
	m.set("disk.fsyncs_per_commit", float64(le.diskFsyncs-lb.diskFsyncs)/commits)
	m.set("disk.fsync_bytes_per_commit", float64(le.diskFsyncBytes-lb.diskFsyncBytes)/commits)
	m.set("observe.checks_per_commit", float64(le.obsChecks-lb.obsChecks)/commits)
	m.set("observe.violations", float64(r.violations))
	m.set("trace.events_per_commit", float64(r.pr.e.emitted-r.pr.b.emitted)/commits)

	m.set("chaos.actions", float64(r.actions))
	m.set("chaos.recovered_frac", ratio(float64(r.recovered), float64(r.recoveries)))
	m.set("chaos.mttr_mean_ms", float64(r.mttrMean)/1e6)
	m.set("chaos.mttr_max_ms", float64(r.mttrMax)/1e6)
	m.set("placement.leader_imbalance", r.leaderImbalance)
	m.set("placement.pg_rate_min_over_max", r.pgMinOverMax)
	m.set("bench.openloop_lag_us_max", float64(r.lagMax)/1e3)
	if w.paperUS > 0 {
		// The model is calibrated against the paper, not validated on
		// hardware; this is a fidelity indicator, not an error bar.
		m.set("bench.paper_latency_err_pct", 100*(r.sim.p50/1e3-w.paperUS)/w.paperUS)
	}
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
