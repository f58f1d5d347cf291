package main

// metricDef fixes one metric's name, unit, clock and direction. The clock
// says what the number costs to reproduce: "sim" metrics are simulated time
// or counts, a pure function of the seed that repeats bit for bit, so any
// movement is real; "host" metrics are what the simulator costs to run on
// this machine, noisy, taken over repetitions (times report the fastest
// repetition, counts the median; see setFastest).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
	Clock  string  `json:"-"`
}

// endToEnd are the metrics a user of the system sees; BENCHMARK.json repeats
// them (the test holds the two in step). Each bound is at least three times
// the widest run-to-run spread measured on the reference box (README.md,
// "Measured spread"), and no tighter than the issue asked.
var endToEnd = []metricDef{
	{Name: "commit_p50_us", Unit: "us", Better: "lower", Bound: 0.05, Clock: "sim"},
	{Name: "commit_p99_us", Unit: "us", Better: "lower", Bound: 0.02, Clock: "sim"},
	{Name: "commit_mean_us", Unit: "us", Better: "lower", Bound: 0.01, Clock: "sim"},
	{Name: "commit_rate_kops", Unit: "kops/s", Better: "higher", Bound: 0.01, Clock: "sim"},
	{Name: "host_us_per_commit", Unit: "us", Better: "lower", Bound: 0.25, Clock: "host"},
	{Name: "host_allocs_per_commit", Unit: "count", Better: "lower", Bound: 0.02, Clock: "host"},
	{Name: "host_bytes_per_commit", Unit: "B", Better: "lower", Bound: 0.05, Clock: "host"},
	{Name: "host_peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Clock: "host"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: "host"},
}

// perLayer are the single-layer metrics, named layer.metric after the
// package they describe. They carry no bound: they explain a movement of an
// end-to-end metric, they are not goals. README.md says which end-to-end
// metric each should move, on which workload.
var perLayer = []metricDef{
	{Name: "simnet.events_per_commit", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "simnet.host_ns_per_event", Unit: "ns", Better: "lower", Clock: "host"},
	{Name: "simnet.polls_per_commit", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "simnet.poll_cpu_frac", Unit: "ratio", Better: "lower", Clock: "sim"},
	{Name: "simnet.proc_busy_max_frac", Unit: "ratio", Better: "lower", Clock: "sim"},
	{Name: "simnet.dispatch_host_ns", Unit: "ns", Better: "lower", Clock: "host"},
	{Name: "simnet.dispatch_host_allocs", Unit: "count", Better: "lower", Clock: "host"},

	{Name: "rdma.writes_per_commit", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "rdma.cqes_per_commit", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "rdma.sig_skip_ratio", Unit: "ratio", Better: "higher", Clock: "sim"},
	{Name: "rdma.wire_bytes_per_commit", Unit: "B", Better: "lower", Clock: "sim"},
	{Name: "rdma.wire_ns_per_commit", Unit: "ns", Better: "lower", Clock: "sim"},
	{Name: "rdma.post_cpu_ns_per_commit", Unit: "ns", Better: "lower", Clock: "sim"},
	{Name: "rdma.post_host_ns", Unit: "ns", Better: "lower", Clock: "host"},
	{Name: "rdma.post_host_allocs", Unit: "count", Better: "lower", Clock: "host"},

	{Name: "tcpnet.msgs_per_commit", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "tcpnet.bytes_per_commit", Unit: "B", Better: "lower", Clock: "sim"},
	{Name: "tcpnet.wakeups_per_commit", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "tcpnet.send_cpu_ns_per_commit", Unit: "ns", Better: "lower", Clock: "sim"},
	{Name: "tcpnet.send_host_ns", Unit: "ns", Better: "lower", Clock: "host"},

	{Name: "ringbuf.send_host_ns", Unit: "ns", Better: "lower", Clock: "host"},
	{Name: "ringbuf.send_host_allocs", Unit: "count", Better: "lower", Clock: "host"},
	{Name: "ringbuf.poll_host_ns", Unit: "ns", Better: "lower", Clock: "host"},

	{Name: "sst.pushes_per_commit", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "sst.push_host_ns", Unit: "ns", Better: "lower", Clock: "host"},

	{Name: "acuerdo.accepts_per_push", Unit: "count", Better: "higher", Clock: "sim"},
	{Name: "acuerdo.elections", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "acuerdo.disk_recovered_bytes", Unit: "B", Better: "higher", Clock: "sim"},
	{Name: "acuerdo.fabric_recovery_bytes", Unit: "B", Better: "lower", Clock: "sim"},
	{Name: "acuerdo.log_insert_host_ns", Unit: "ns", Better: "lower", Clock: "host"},

	{Name: "abcast.stage_post_us", Unit: "us", Better: "lower", Clock: "sim"},
	{Name: "abcast.stage_wire_us", Unit: "us", Better: "lower", Clock: "sim"},
	{Name: "abcast.stage_proto_us", Unit: "us", Better: "lower", Clock: "sim"},
	{Name: "abcast.stage_ack_us", Unit: "us", Better: "lower", Clock: "sim"},
	{Name: "abcast.failed_frac", Unit: "ratio", Better: "lower", Clock: "sim"},
	{Name: "abcast.checker_host_ns", Unit: "ns", Better: "lower", Clock: "host"},

	{Name: "disk.writes_per_commit", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "disk.fsyncs_per_commit", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "disk.fsync_bytes_per_commit", Unit: "B", Better: "lower", Clock: "sim"},
	{Name: "disk.append_host_ns", Unit: "ns", Better: "lower", Clock: "host"},
	{Name: "disk.overhead_pct", Unit: "%", Better: "lower", Clock: "host"},

	{Name: "observe.checks_per_commit", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "observe.violations", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "observe.overhead_pct", Unit: "%", Better: "lower", Clock: "host"},

	{Name: "trace.events_per_commit", Unit: "count", Better: "lower", Clock: "sim"},
	{Name: "trace.emit_host_ns", Unit: "ns", Better: "lower", Clock: "host"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Clock: "host"},

	{Name: "chaos.actions", Unit: "count", Better: "higher", Clock: "sim"},
	{Name: "chaos.recovered_frac", Unit: "ratio", Better: "higher", Clock: "sim"},
	{Name: "chaos.mttr_mean_ms", Unit: "ms", Better: "lower", Clock: "sim"},
	{Name: "chaos.mttr_max_ms", Unit: "ms", Better: "lower", Clock: "sim"},
	{Name: "chaos.unavail_ms", Unit: "ms", Better: "lower", Clock: "sim"},

	{Name: "placement.build_host_us", Unit: "us", Better: "lower", Clock: "host"},
	{Name: "placement.leader_imbalance", Unit: "ratio", Better: "lower", Clock: "sim"},
	{Name: "placement.pg_rate_min_over_max", Unit: "ratio", Better: "higher", Clock: "sim"},

	{Name: "kvstore.apply_host_ns", Unit: "ns", Better: "lower", Clock: "host"},
	{Name: "ycsb.next_host_ns", Unit: "ns", Better: "lower", Clock: "host"},
	{Name: "metrics.hist_add_host_ns", Unit: "ns", Better: "lower", Clock: "host"},

	{Name: "bench.build_s", Unit: "s", Better: "lower", Clock: "host"},
	{Name: "bench.elect_s", Unit: "s", Better: "lower", Clock: "host"},
	{Name: "bench.warmup_s", Unit: "s", Better: "lower", Clock: "host"},
	{Name: "bench.cpu_us_per_commit", Unit: "us", Better: "lower", Clock: "host"},
	{Name: "bench.gc_cycles", Unit: "count", Better: "lower", Clock: "host"},
	{Name: "bench.gc_cpu_frac", Unit: "ratio", Better: "lower", Clock: "host"},
	{Name: "bench.rep_spread_pct", Unit: "%", Better: "lower", Clock: "host"},
	{Name: "bench.openloop_lag_us_max", Unit: "us", Better: "lower", Clock: "sim"},
	{Name: "bench.paper_latency_err_pct", Unit: "%", Better: "lower", Clock: "sim"},
}

// stat is one reported metric. Host metrics taken over repetitions carry the
// repetitions' quartiles and number; sim metrics are single exact values.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// stats collects a run's metrics against a fixed list of definitions, so a
// metric that was defined but never set, or set but never defined, is a
// programming error caught at the end of every run.
type stats struct {
	defs []metricDef
	m    map[string]stat
}

func newStats(defs []metricDef) *stats { return &stats{defs: defs, m: make(map[string]stat)} }

func (s *stats) def(name string) metricDef {
	for _, d := range s.defs {
		if d.Name == name {
			return d
		}
	}
	panic("benchmark: metric " + name + " is not defined")
}

// set records an exact value.
func (s *stats) set(name string, v float64) {
	d := s.def(name)
	s.m[name] = stat{Value: v, Unit: d.Unit, Clock: d.Clock}
}

// setMedian records the median of a host metric's repetitions.
func (s *stats) setMedian(name string, values []float64) {
	d := s.def(name)
	q1, med, q3 := quartiles(values)
	s.m[name] = stat{Value: med, Unit: d.Unit, Clock: d.Clock, Q1: q1, Q3: q3, N: len(values)}
}

// setFastest records the fastest of a host time's repetitions, with the
// quartiles of all of them. On a shared machine interference only ever adds
// time, in bursts that outlast several reps, so the floor is the steadiest
// estimate of what the code costs (the median's run-to-run spread measured
// here was 11-20 %, the floor's 6-9 %); a real change moves the floor and the
// median alike.
func (s *stats) setFastest(name string, values []float64) {
	d := s.def(name)
	q1, _, q3 := quartiles(values)
	s.m[name] = stat{Value: fastest(values), Unit: d.Unit, Clock: d.Clock, Q1: q1, Q3: q3, N: len(values)}
}

// complete fills every still-unset metric with zero: a layer the workload
// does not touch reports zero rather than going missing.
func (s *stats) complete() {
	for _, d := range s.defs {
		if _, ok := s.m[d.Name]; !ok {
			s.set(d.Name, 0)
		}
	}
}
