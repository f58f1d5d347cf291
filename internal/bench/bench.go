// Package bench is the experiment harness that regenerates every table and
// figure in the paper's evaluation (§4): the latency/throughput curves of
// Figure 8, the election durations of Table 1, and the YCSB-load comparison
// of Figure 9. See DESIGN.md's per-experiment index.
package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/acuerdo"
	"acuerdo/internal/apus"
	"acuerdo/internal/chaos"
	"acuerdo/internal/derecho"
	"acuerdo/internal/digest"
	"acuerdo/internal/disk"
	"acuerdo/internal/observe"
	"acuerdo/internal/paxos"
	"acuerdo/internal/raft"
	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
	"acuerdo/internal/sweep"
	"acuerdo/internal/tcpnet"
	"acuerdo/internal/trace"
	"acuerdo/internal/zab"
)

// Kind names one of the seven evaluated systems.
type Kind string

// The systems of Figure 8, in the paper's legend order.
const (
	Acuerdo       Kind = "acuerdo"
	DerechoAll    Kind = "derecho-all"
	DerechoLeader Kind = "derecho-leader"
	Etcd          Kind = "etcd"
	Libpaxos      Kind = "libpaxos"
	Zookeeper     Kind = "zookeeper"
	Apus          Kind = "apus"
)

// AllKinds lists every system in the Figure 8 comparison.
var AllKinds = []Kind{Acuerdo, DerechoAll, DerechoLeader, Etcd, Libpaxos, Zookeeper, Apus}

// ParseKinds parses a comma-separated list of system names, the one reading
// of every command's -systems flag. An empty list selects def; a name outside
// AllKinds is an error that lists the known ones, so a typo is refused before
// any world is built.
func ParseKinds(list string, def []Kind) ([]Kind, error) {
	if list == "" {
		return def, nil
	}
	var kinds []Kind
	for _, s := range strings.Split(list, ",") {
		k := Kind(strings.TrimSpace(s))
		if !slices.Contains(AllKinds, k) {
			return nil, fmt.Errorf("unknown system %q (want one of %v)", k, AllKinds)
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// Durability selects the storage model an instance boots with.
type Durability string

// The three storage models of the durability comparison. Volatile is the
// legacy in-memory model; Durable gives every replica a simulated disk it
// recovers from after a crash; Amnesia gives the same disks but wipes the
// victim's disk at every crash — the node rejoins with nothing and refetches
// everything over the interconnect, the worst-case recovery-bytes baseline.
const (
	Volatile Durability = ""
	Durable  Durability = "durable"
	Amnesia  Durability = "amnesia"
)

// Instance is one booted system ready for load.
type Instance struct {
	Sim *simnet.Sim
	// Sys is the client-facing submit surface load drivers use; harnesses
	// may wrap it (an ack tap). Group is the same cluster under the full
	// contract and is never wrapped.
	Sys   abcast.System
	Group abcast.Group
	N     int

	// AcuerdoCluster is Group's concrete type when Kind == Acuerdo (the
	// election experiment and ablations read replica internals).
	AcuerdoCluster *acuerdo.Cluster

	// ownFabric is the private RDMA fabric whose pooled regions Close
	// returns: nil for the TCP-based systems, and for instances on
	// Options.SharedFabric, whose owner releases it once after every
	// instance on it is done.
	ownFabric *rdma.Fabric

	// Disks holds one simulated device per replica when the instance was
	// built with Options.Durability != Volatile on a system that implements
	// abcast.DurableGroup; nil otherwise.
	Disks []*disk.Device

	// Observer is the runtime invariant observer the instance was built
	// under (Options.Observer), where a harness reads its verdict; nil when
	// unobserved, which every Observer accessor reads as zero.
	Observer *observe.Observer

	// member is the instance's group as a chaos fleet member — the one
	// group of ChaosTarget, or one of a PlacementWorld's; harnesses hook its
	// BeforeRestart/AfterCrash rather than wrapping the target.
	member *chaos.Member
}

// Check puts the instance under the atomic-broadcast safety checker, the one
// delivery tap every harness shares, and returns it: the caller reports each
// broadcast (OnBroadcast) and reads the verdict (Err, Fingerprint) when the
// run is over. Every delivery at every replica runs apply first, when
// non-nil, then the checker; payloads under 8 bytes carry no message id and
// are not checked. A restart opens the checker's replay window only on an
// instance with disks, whose replicas re-deliver their recovered prefix: a
// volatile replica re-delivers nothing, so an open window there would excuse
// a real duplicate.
func (inst *Instance) Check(apply func(replica int, payload []byte)) *abcast.Checker {
	c := abcast.NewChecker(inst.N)
	inst.Group.SetDeliver(func(replica int, payload []byte) {
		if apply != nil {
			apply(replica, payload)
		}
		if len(payload) >= 8 {
			c.OnDeliver(replica, abcast.MsgID(payload)) // latched: read back through Err
		}
	})
	if inst.Disks != nil {
		inst.member.BeforeRestart = c.NodeRestart
	}
	return c
}

// verdict reads the observer's verdict: violation count, hook invocations,
// and the streaming check digest; all zero on an unobserved instance.
func (inst *Instance) verdict() (violations int64, checks uint64, sum digest.Sum) {
	o := inst.Observer
	return o.ViolationCount(), o.Checks(), o.Digest()
}

// ChaosTarget exposes the instance's fault-control surface: the fleet whose
// node i hosts replica i.
func (inst *Instance) ChaosTarget() chaos.Target { return chaos.OneGroup(inst.member, inst.Sim.Rand()) }

// DiskRecoveredBytes sums bytes read back from local disks during crash
// recovery across the group; zero on volatile instances.
func (inst *Instance) DiskRecoveredBytes() int64 {
	if inst.Disks == nil {
		return 0
	}
	return inst.Group.(abcast.DurableGroup).DiskRecoveredBytes()
}

// FabricRecoveryBytes sums payload bytes re-shipped over the interconnect to
// refill crash-lost state across the group; zero on volatile instances.
func (inst *Instance) FabricRecoveryBytes() int64 {
	if inst.Disks == nil {
		return 0
	}
	return inst.Group.(abcast.DurableGroup).FabricRecoveryBytes()
}

// DurableDigest folds every device's durable-content digest into one value:
// two same-seed durable runs must match bit for bit. Zero on volatile
// instances: the fold is FNV-1 (multiply, then xor) from a zero basis.
func (inst *Instance) DurableDigest() digest.Sum {
	var d digest.Sum
	for _, dev := range inst.Disks {
		d = d*digest.Prime ^ dev.Digest()
	}
	return d
}

// Close returns the instance's pooled resources (registered RDMA regions)
// to their process-wide free lists. The instance must not be stepped,
// polled, or measured afterwards. Harnesses that build one instance per
// point call this between points; leaving an instance unclosed is safe,
// it just forgoes the reuse.
func (inst *Instance) Close() {
	if inst.ownFabric != nil {
		inst.ownFabric.Release()
	}
}

// Options tweaks instance construction.
type Options struct {
	// Desched injects scheduler noise into every replica (Acuerdo only;
	// used by the Table 1 experiment).
	Desched *simnet.DeschedConfig
	// AcuerdoConfig overrides the replica config (ablations).
	AcuerdoConfig *acuerdo.Config
	// Tracer, when non-nil, is installed on the simulator before the system
	// is built so that construction-time events (thread names, first
	// elections) are captured too.
	Tracer *trace.Tracer
	// Observer, when non-nil, is attached to the system before it starts,
	// so runtime invariant checking covers the first election onward.
	Observer *observe.Observer
	// Durability selects the storage model (Volatile, Durable, Amnesia).
	// Non-volatile modes give every replica a simulated disk on systems
	// that implement abcast.DurableGroup; the others silently stay volatile
	// so cross-system sweeps can share one Options value.
	Durability Durability
	// SharedFabric, when non-nil, hosts the instance on an existing RDMA
	// fabric instead of a private one, so many instances — one broadcast
	// ring per placement group — contend on one interconnect. Ignored by
	// the TCP-based systems (etcd, zookeeper, libpaxos).
	SharedFabric *rdma.Fabric
	// SharedNet is SharedFabric's counterpart for the TCP-based systems;
	// ignored by the RDMA-based ones.
	SharedNet *tcpnet.Net
	// ReplicaProcs, when non-nil, backs the instance's replica nodes with
	// these pre-created CPUs (in replica order) instead of fresh per-node
	// ones: replica i runs on ReplicaProcs[i]. The placement layer passes
	// each group's fleet-node CPUs here, so co-located replicas of
	// different groups time-share a core. Must have exactly n entries.
	// Client nodes always get their own CPUs.
	ReplicaProcs []*simnet.Proc
}

// warmUp runs the instance's simulation until a leader serves
// (abcast.AwaitReady), for harnesses that cannot proceed without one.
func (inst *Instance) warmUp() {
	if !abcast.AwaitReady(inst.Sim, inst.Sys.Ready) {
		panic(fmt.Sprintf("bench: %s/%d never became ready", inst.Sys.Name(), inst.N))
	}
}

// NewInstance builds, starts, and warms up (leader elected) one system.
func NewInstance(kind Kind, n int, seed int64, opt Options) *Instance {
	inst := NewInstanceOn(simnet.New(seed), kind, n, opt)
	inst.warmUp()
	return inst
}

// systems is the constructor table: per kind, which interconnect class the
// system runs on (exactly one of onFabric/onNet is set) and how to build
// its group there. Everything after construction goes through abcast.Group,
// so adding a system is its package plus one entry here.
var systems = map[Kind]struct {
	onFabric func(sim *simnet.Sim, f *rdma.Fabric, n int, opt Options) abcast.Group
	onNet    func(sim *simnet.Sim, nt *tcpnet.Net, n int, opt Options) abcast.Group
}{
	Acuerdo: {onFabric: func(sim *simnet.Sim, f *rdma.Fabric, n int, opt Options) abcast.Group {
		cfg := acuerdo.DefaultClusterConfig(n)
		if opt.AcuerdoConfig != nil {
			cfg.Replica = *opt.AcuerdoConfig
		}
		cfg.Desched = opt.Desched
		return acuerdo.NewCluster(sim, f, cfg)
	}},
	DerechoAll: {onFabric: func(sim *simnet.Sim, f *rdma.Fabric, n int, _ Options) abcast.Group {
		return derecho.NewCluster(sim, f, derecho.DefaultConfig(n, derecho.AllMode))
	}},
	DerechoLeader: {onFabric: func(sim *simnet.Sim, f *rdma.Fabric, n int, _ Options) abcast.Group {
		return derecho.NewCluster(sim, f, derecho.DefaultConfig(n, derecho.LeaderMode))
	}},
	Apus: {onFabric: func(sim *simnet.Sim, f *rdma.Fabric, n int, _ Options) abcast.Group {
		return apus.NewCluster(sim, f, apus.DefaultConfig(n))
	}},
	Etcd: {onNet: func(sim *simnet.Sim, nt *tcpnet.Net, n int, _ Options) abcast.Group {
		return raft.NewCluster(sim, nt, raft.DefaultConfig(n))
	}},
	Libpaxos: {onNet: func(sim *simnet.Sim, nt *tcpnet.Net, n int, _ Options) abcast.Group {
		return paxos.NewCluster(sim, nt, paxos.DefaultConfig(n))
	}},
	Zookeeper: {onNet: func(sim *simnet.Sim, nt *tcpnet.Net, n int, _ Options) abcast.Group {
		return zab.NewCluster(sim, nt, zab.DefaultConfig(n))
	}},
}

// NewInstanceOn builds and starts one system on an existing simulator without
// warming it up. The seed-replay harness uses this to construct the same
// system twice on two identically seeded simulators.
func NewInstanceOn(sim *simnet.Sim, kind Kind, n int, opt Options) *Instance {
	sys, ok := systems[kind]
	if !ok {
		panic("bench: unknown system " + string(kind))
	}
	if opt.Tracer != nil {
		sim.SetTracer(opt.Tracer)
	}
	inst := &Instance{Sim: sim, N: n, Observer: opt.Observer}
	// Build on the shared interconnect when the placement layer provides
	// one, a private one otherwise; either way any queued replica CPUs are
	// installed first, for the cluster's upcoming AddNode calls.
	var g abcast.Group
	var links *simnet.Links
	if sys.onFabric != nil {
		f := opt.SharedFabric
		if f == nil {
			f = rdma.NewFabric(sim, rdma.DefaultParams())
			inst.ownFabric = f
		}
		f.ProvideProcs(opt.ReplicaProcs)
		g, links = sys.onFabric(sim, f, n, opt), f.Links
	} else {
		nt := opt.SharedNet
		if nt == nil {
			nt = tcpnet.New(sim, tcpnet.DefaultParams())
		}
		nt.ProvideProcs(opt.ReplicaProcs)
		g, links = sys.onNet(sim, nt, n, opt), nt.Links
	}
	if opt.Observer != nil {
		// Only a real observer subscribes: a nil *Observer in the interface
		// would not read as nil, and every fact would pay a call.
		g.Subscribe(opt.Observer)
	}
	if dg, ok := g.(abcast.DurableGroup); ok && opt.Durability != Volatile {
		inst.Disks = make([]*disk.Device, n)
		for i := range inst.Disks {
			inst.Disks[i] = disk.NewDevice(sim, i, disk.DefaultParams())
		}
		dg.SetDisks(inst.Disks)
	}
	g.Start()
	inst.Sys, inst.Group = g, g
	inst.AcuerdoCluster, _ = g.(*acuerdo.Cluster)
	inst.member = &chaos.Member{Group: g, Links: links, Disks: inst.Disks}
	if opt.Durability == Amnesia && inst.Disks != nil {
		// Amnesia wipes the victim's disk at crash time — the node rejoins
		// with nothing, the worst-case fabric-bytes baseline — and the
		// observer is told the durable floor is gone so the lost frontier is
		// not a violation.
		inst.member.AfterCrash = func(i int) {
			inst.Disks[i].Wipe()
			inst.Observer.Observe(trace.Fact{Kind: trace.DiskFault, Replica: i, Node: g.NodeID(i), At: int64(sim.Now())})
		}
	}
	return inst
}

// --- Figure 8: broadcast latency/throughput under varying load ---

// Fig8Config parameterizes one subfigure.
type Fig8Config struct {
	// Nodes is the cluster size of the subfigure.
	Nodes int
	// MsgSize is the payload size in bytes (10 or 1000 in the paper).
	MsgSize int
	// Windows is the closed-loop load ladder (outstanding messages).
	Windows []int
	// Warmup and Measure are per-point simulated durations.
	Warmup  time.Duration
	Measure time.Duration
	// Seed seeds point i's private simulator with Seed+i, which is what
	// makes every grid point an independent, parallelizable world.
	Seed int64
	// TraceEvents, when > 0, installs a fresh tracer with that ring capacity
	// on every load point, enabling the latency decomposition columns and
	// Chrome-trace export of the last point.
	TraceEvents int
	// MinCommitted, when > 0, extends a point's measurement window until at
	// least that many deliveries land (see abcast.LoadConfig.MinCommitted).
	MinCommitted int
	// MaxMeasure caps the adaptive extension; zero means 10× Measure.
	MaxMeasure time.Duration
	// Observe runs every point under a runtime invariant observer
	// (internal/observe). A sweep point is a fault-free world, so any
	// violation is a protocol bug: RunPoint panics with the observer's
	// witness report. Off by default — the hot path stays hook-free.
	Observe bool
}

// DefaultWindows is the paper's 2^0..2^N load ladder.
var DefaultWindows = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// MinSamplesPerPoint is the delivery quota a default sweep point must meet:
// the measurement window extends (up to 10×) until at least this many
// deliveries land, so heavily loaded points — etcd at window 256 exceeds
// the 20 ms window with a handful of commits — report quantiles over a
// usable sample count instead of an under-filled window.
const MinSamplesPerPoint = 50

// DefaultFig8 returns the configuration for one of the four subfigures.
func DefaultFig8(nodes, msgSize int) Fig8Config {
	return Fig8Config{
		Nodes:        nodes,
		MsgSize:      msgSize,
		Windows:      DefaultWindows,
		Warmup:       4 * time.Millisecond,
		Measure:      20 * time.Millisecond,
		Seed:         1,
		MinCommitted: MinSamplesPerPoint,
	}
}

// RunPoint measures grid point i (window cfg.Windows[i]) of one system's
// ladder on a fresh, privately seeded instance, under the safety checker:
// the point is fault-free, so a violation is a protocol bug and panics. It
// is the unit of work both the serial and the parallel sweeps execute, which
// is why their results are identical byte for byte.
func RunPoint(kind Kind, cfg Fig8Config, i int) abcast.LoadResult {
	var opt Options
	if cfg.TraceEvents > 0 {
		opt.Tracer = trace.New(cfg.TraceEvents)
	}
	sim := simnet.New(cfg.Seed + int64(i))
	if cfg.Observe {
		opt.Observer = NewObserver(sim, kind, cfg.Nodes)
	}
	inst := NewInstanceOn(sim, kind, cfg.Nodes, opt)
	inst.warmUp()
	checker := inst.Check(nil)
	res := abcast.RunClosedLoop(inst.Sim, inst.Sys, abcast.LoadConfig{
		Window:       cfg.Windows[i],
		MsgSize:      cfg.MsgSize,
		Warmup:       cfg.Warmup,
		Measure:      cfg.Measure,
		MinCommitted: cfg.MinCommitted,
		MaxMeasure:   cfg.MaxMeasure,
		OnSubmit:     checker.OnBroadcast,
	})
	if err := checker.Err(); err != nil {
		panic(fmt.Sprintf("bench: %s/%d window %d violated safety under fault-free load: %v",
			kind, cfg.Nodes, cfg.Windows[i], err))
	}
	if inst.Observer.ViolationCount() > 0 {
		panic(fmt.Sprintf("bench: %s/%d window %d violated invariants under fault-free load:\n%s",
			kind, cfg.Nodes, cfg.Windows[i], inst.Observer.Report()))
	}
	inst.Close()
	return res
}

// Figure8Parallel runs one subfigure's (system × window) grid on a worker
// pool. Every grid point is a sealed world — its own simulator, seeded only
// by (cfg.Seed, window index) — so the merged result is identical for every
// worker count, including 1; only the sweep.Report (host wall-clock) varies.
// workers <= 0 selects GOMAXPROCS.
func Figure8Parallel(cfg Fig8Config, kinds []Kind, workers int) (map[Kind][]abcast.LoadResult, sweep.Report) {
	if kinds == nil {
		kinds = AllKinds
	}
	type job struct {
		k Kind
		i int
	}
	jobs := make([]job, 0, len(kinds)*len(cfg.Windows))
	for _, k := range kinds {
		for i := range cfg.Windows {
			jobs = append(jobs, job{k, i})
		}
	}
	results, rep := sweep.Run(len(jobs), workers, func(j int) abcast.LoadResult {
		return RunPoint(jobs[j].k, cfg, jobs[j].i)
	})
	out := make(map[Kind][]abcast.LoadResult, len(kinds))
	for j, r := range results {
		out[jobs[j].k] = append(out[jobs[j].k], r)
	}
	return out, rep
}

// PrintFigure8 renders one subfigure's series as the paper's
// (throughput, latency) curves.
func PrintFigure8(w io.Writer, title string, cfg Fig8Config, results map[Kind][]abcast.LoadResult, kinds []Kind) {
	if kinds == nil {
		kinds = AllKinds
	}
	fmt.Fprintf(w, "%s (%d nodes, %dB messages; window %v)\n", title, cfg.Nodes, cfg.MsgSize, cfg.Windows)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "system\twindow\tthroughput(MB/s)\tthroughput(msg/s)\tlat-mean(us)\tlat-p50(us)\tlat-p90(us)\tlat-p99(us)\tlat-max(us)\n")
	for _, k := range kinds {
		for _, r := range results[k] {
			s := r.Latency.Export()
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				r.System, r.Window, r.MBPerSec, r.MsgsPerSec,
				us(s.Mean), us(s.P50), us(s.P90), us(s.P99), us(s.Max))
		}
	}
	tw.Flush()
	PrintDecomposition(w, results, kinds)
}

// PrintDecomposition renders the per-stage latency breakdown for every traced
// load point (no-op when tracing was off).
func PrintDecomposition(w io.Writer, results map[Kind][]abcast.LoadResult, kinds []Kind) {
	if kinds == nil {
		kinds = AllKinds
	}
	any := false
	for _, k := range kinds {
		for _, r := range results[k] {
			if r.Decomp != nil && r.Decomp.Messages > 0 {
				any = true
			}
		}
	}
	if !any {
		return
	}
	fmt.Fprintln(w, "latency decomposition (submit->propose->accept->commit->ack, mean us per stage)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "system\twindow\tmsgs\tpost(us)\twire(us)\tproto(us)\tack(us)\ttotal(us)\n")
	for _, k := range kinds {
		for _, r := range results[k] {
			d := r.Decomp
			if d == nil || d.Messages == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				r.System, r.Window, d.Messages,
				us(d.Post()), us(d.Wire()), us(d.Proto()), us(d.Ack()), us(d.Total()))
		}
	}
	tw.Flush()
}

// PrintLayerReport renders the per-layer counters of each system's final
// (highest-window) traced load point.
func PrintLayerReport(w io.Writer, results map[Kind][]abcast.LoadResult, kinds []Kind) {
	if kinds == nil {
		kinds = AllKinds
	}
	for _, k := range kinds {
		rs := results[k]
		if len(rs) == 0 {
			continue
		}
		last := rs[len(rs)-1]
		if last.Trace == nil {
			continue
		}
		fmt.Fprintf(w, "%s layer counters (window %d):\n", last.System, last.Window)
		last.Trace.WriteCounters(w)
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// --- Table 1: election duration vs replica count ---

// ElectionConfig parameterizes the Table 1 experiment.
type ElectionConfig struct {
	Nodes  int
	Rounds int
	Seed   int64
	// ProposeEvery is the open-loop message rate at the leader.
	ProposeEvery time.Duration
	// PauseFor is how long a deposed leader sleeps (the paper used 5s;
	// anything far above the failure timeout behaves identically).
	PauseFor time.Duration
	// Desched is the background scheduler noise on every replica.
	Desched *simnet.DeschedConfig
	// LongLatency is the number of "long-latency" machines in the cluster
	// (§4.2: the paper's testbed had a fixed machine pool whose slower
	// machines necessarily join larger clusters; election duration tracked
	// the proportion of such nodes far more than the replica count).
	LongLatency int
	// LLDesched is the long-latency machines' pause model.
	LLDesched *simnet.DeschedConfig
}

// DefaultElection returns the calibrated Table 1 configuration: two of the
// pool's nine machines are long-latency, so a cluster of n includes
// floor(2n/9) of them.
func DefaultElection(n int) ElectionConfig {
	return ElectionConfig{
		Nodes:        n,
		Rounds:       20,
		Seed:         1,
		ProposeEvery: 50 * time.Microsecond,
		PauseFor:     40 * time.Millisecond,
		Desched: &simnet.DeschedConfig{
			Interval: simnet.Exponential{MeanD: 20 * time.Millisecond, Cap: 100 * time.Millisecond},
			Pause:    simnet.Exponential{MeanD: 60 * time.Microsecond, Cap: 2 * time.Millisecond},
		},
		LongLatency: 2 * n / 9,
		LLDesched: &simnet.DeschedConfig{
			Interval: simnet.Exponential{MeanD: 8 * time.Millisecond, Cap: 40 * time.Millisecond},
			Pause:    simnet.LogNormal{Mu: 15.9, Sigma: 0.8, Cap: 50 * time.Millisecond}, // ~8ms median
		},
	}
}

// ElectionResult is one Table 1 cell.
type ElectionResult struct {
	Nodes     int
	Rounds    int
	Durations []time.Duration
}

// Avg returns the mean election duration (the paper's reported statistic).
func (r ElectionResult) Avg() time.Duration {
	if len(r.Durations) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.Durations {
		sum += d
	}
	return sum / time.Duration(len(r.Durations))
}

// ElectionBench repeatedly deposes the Acuerdo leader (it "sleeps" after
// winning, as in the paper) and measures, at each new winner, the time from
// its own suspicion of the old leader until it finished the election and
// diff transfer and could broadcast — detection time excluded, diff
// transfer included, exactly as §4.2 specifies.
func ElectionBench(cfg ElectionConfig) ElectionResult {
	acfg := acuerdo.DefaultConfig()
	acfg.CandidateTimeout = 2 * time.Millisecond
	inst := NewInstance(Acuerdo, cfg.Nodes, cfg.Seed, Options{
		Desched:       cfg.Desched,
		AcuerdoConfig: &acfg,
	})
	c := inst.AcuerdoCluster
	sim := inst.Sim
	// The long-latency machines (spread away from the initial leader so
	// they act as regular followers).
	if cfg.LLDesched != nil {
		ldr := c.LeaderIdx()
		for k := 0; k < cfg.LongLatency; k++ {
			d := *cfg.LLDesched
			c.Replicas[(ldr+1+k)%cfg.Nodes].Node.Proc.SetDesched(&d)
		}
	}
	res := ElectionResult{Nodes: cfg.Nodes, Rounds: cfg.Rounds}

	// Open-loop proposer: the leader streams 10-byte messages.
	var seq uint64
	var pump func()
	pump = func() {
		if ldr := c.Leader(); ldr != nil {
			seq++
			p := make([]byte, 10)
			abcast.PutMsgID(p, seq)
			ldr.Broadcast(p)
		}
		sim.After(cfg.ProposeEvery, pump)
	}
	pump()
	sim.RunFor(20 * time.Millisecond)

	for round := 0; round < cfg.Rounds; round++ {
		ldr := c.LeaderIdx()
		if ldr < 0 {
			sim.RunFor(20 * time.Millisecond)
			continue
		}
		oldEpoch := c.Replicas[ldr].Epoch()
		// The winner sleeps: heartbeats stop, survivors detect and elect.
		c.Replicas[ldr].Node.Proc.Pause(cfg.PauseFor)
		deadline := sim.Now().Add(2 * time.Second)
		for sim.Now() < deadline {
			sim.RunFor(2 * time.Millisecond)
			if i := c.LeaderIdx(); i >= 0 && i != ldr && oldEpoch.Less(c.Replicas[i].Epoch()) {
				break
			}
		}
		if i := c.LeaderIdx(); i >= 0 && i != ldr {
			res.Durations = append(res.Durations, c.Replicas[i].ElectionTook)
		}
		// Let the old leader wake and rejoin before the next round.
		sim.RunFor(cfg.PauseFor + 20*time.Millisecond)
	}
	return res
}

// CriticalElection returns the long-latency-critical variant: f of the
// replicas are long-latency machines, which makes the quorum depend on at
// least one of them in every election. This is the regime the paper's §4.2
// observation describes ("election times were far more sensitive to the
// proportion of long-latency nodes than to the overall number of replicas").
func CriticalElection(n int) ElectionConfig {
	cfg := DefaultElection(n)
	cfg.LongLatency = (n - 1) / 2
	cfg.LLDesched = &simnet.DeschedConfig{
		Interval: simnet.Exponential{MeanD: 6 * time.Millisecond, Cap: 30 * time.Millisecond},
		Pause:    simnet.LogNormal{Mu: 15.4, Sigma: 1.0, Cap: 30 * time.Millisecond},
	}
	return cfg
}

// Table1Row pairs the quiet and long-latency-critical measurements for one
// replica count.
type Table1Row struct {
	Quiet    ElectionResult
	Critical ElectionResult
}

// Table1 runs the election experiment across replica counts, in both the
// quiet configuration and the long-latency-critical one.
func Table1(counts []int, rounds int, seed int64) []Table1Row {
	if counts == nil {
		counts = []int{3, 5, 7, 9}
	}
	out := make([]Table1Row, 0, len(counts))
	for _, n := range counts {
		q := DefaultElection(n)
		q.Rounds = rounds
		q.Seed = seed
		c := CriticalElection(n)
		c.Rounds = rounds
		c.Seed = seed
		out = append(out, Table1Row{Quiet: ElectionBench(q), Critical: ElectionBench(c)})
	}
	return out
}

// PrintTable1 renders Table 1: the paper reports a single average per
// replica count; we report the quiet-cluster average plus the
// long-latency-critical average (see EXPERIMENTS.md for the analysis).
func PrintTable1(w io.Writer, results []Table1Row) {
	fmt.Fprintln(w, "Table 1: average Acuerdo election duration (includes diff transfer)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "replicas\telections\tavg(quiet)\tavg(long-latency-critical)\n")
	for _, r := range results {
		fmt.Fprintf(tw, "%d\t%d\t%.2fms\t%.2fms\n",
			r.Quiet.Nodes, len(r.Quiet.Durations),
			float64(r.Quiet.Avg())/1e6, float64(r.Critical.Avg())/1e6)
	}
	tw.Flush()
}
