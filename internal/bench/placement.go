// Sharded multi-group harness: one simulation hosting a whole placement
// map's worth of broadcast rings (internal/placement) on a shared
// interconnect and a shared fleet of CPUs, driven by per-group YCSB load.
// This is the scale-out experiment: per-ring throughput is fully
// characterized by Figure 8/9, so aggregate capacity must come from many
// groups — and it only scales until the co-located replicas saturate the
// fleet's cores.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/chaos"
	"acuerdo/internal/digest"
	"acuerdo/internal/kvstore"
	"acuerdo/internal/metrics"
	"acuerdo/internal/placement"
	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
	"acuerdo/internal/sweep"
	"acuerdo/internal/tcpnet"
	"acuerdo/internal/trace"
	"acuerdo/internal/ycsb"
)

// fleetProcBase offsets fleet CPU ids far above any interconnect node id so
// trace thread names never collide with per-ring node processes.
const fleetProcBase = 1 << 20

// PlacementConfig parameterizes one multi-group YCSB run.
type PlacementConfig struct {
	// Kind selects which of the seven systems every group's ring runs.
	Kind Kind
	// Placement is the map configuration (PG count, group size, fleet,
	// failure domains, placement seed).
	Placement placement.Config
	// WindowPerPG is each group's closed-loop client window, so offered
	// load grows with the PG count.
	WindowPerPG int
	// Records is the keyspace size shared by all groups; keys route to
	// groups by placement.Map.KeyPG.
	Records uint64
	// Value is the value payload per write.
	Value int
	// Warmup and Measure are the simulated load phases.
	Warmup  time.Duration
	Measure time.Duration
	// Seed seeds the one shared simulator; every group's workload derives
	// a private stream from it.
	Seed int64
	// Observe attaches one runtime invariant observer per group. A
	// fault-free multi-group run must check clean in every group.
	Observe bool
}

// DefaultPlacement returns the calibrated scale-out configuration for pgs
// groups of kind rings over the default twelve-node fleet.
func DefaultPlacement(kind Kind, pgs int) PlacementConfig {
	return PlacementConfig{
		Kind:        kind,
		Placement:   placement.DefaultConfig(pgs),
		WindowPerPG: 16,
		Records:     10000,
		Value:       100,
		Warmup:      4 * time.Millisecond,
		Measure:     15 * time.Millisecond,
		Seed:        1,
	}
}

// PlacementWorld is one booted multi-group simulation: every group's ring
// started on a shared interconnect, with co-located replicas time-sharing
// the fleet's CPUs.
type PlacementWorld struct {
	Sim    *simnet.Sim
	Tracer *trace.Tracer
	Map    *placement.Map
	// Insts holds one started instance per group, in PG-ID order.
	Insts []*Instance
	// FleetProcs are the shared CPUs, one per fleet node; group replicas
	// run on the proc of the fleet node the map placed them on.
	FleetProcs []*simnet.Proc
	// Fabric is the shared RDMA interconnect Close releases; nil when the
	// groups run on a shared tcpnet.Net instead.
	Fabric *rdma.Fabric
}

// NewPlacementWorld builds and starts every group of m as a kind ring on
// one simulator seeded with seed. Groups are constructed in PG-ID order,
// each with its members' fleet CPUs pre-provided to the interconnect, so
// the whole world is a pure function of (kind, m, seed, withObservers).
func NewPlacementWorld(kind Kind, m *placement.Map, seed int64, withObservers bool) *PlacementWorld {
	sim := simnet.New(seed)
	tr := trace.New(1 << 14)
	sim.SetTracer(tr)
	w := &PlacementWorld{Sim: sim, Tracer: tr, Map: m}
	w.FleetProcs = make([]*simnet.Proc, m.Config.Fleet)
	for k := range w.FleetProcs {
		w.FleetProcs[k] = simnet.NewProc(sim, fleetProcBase+k, fmt.Sprintf("fleet%d", k))
	}
	var opt Options
	if systems[kind].onFabric != nil {
		w.Fabric = rdma.NewFabric(sim, rdma.DefaultParams())
		opt.SharedFabric = w.Fabric
	} else {
		opt.SharedNet = tcpnet.New(sim, tcpnet.DefaultParams())
	}
	for _, g := range m.Groups {
		procs := make([]*simnet.Proc, len(g.Members))
		for i, n := range g.Members {
			procs[i] = w.FleetProcs[n]
		}
		o := opt
		o.ReplicaProcs = procs
		if withObservers {
			o.Observer = NewObserver(sim, kind, m.Config.PGSize)
		}
		w.Insts = append(w.Insts, NewInstanceOn(sim, kind, m.Config.PGSize, o))
	}
	return w
}

// Ready reports whether every group's ring has a serving leader.
func (w *PlacementWorld) Ready() bool {
	for _, inst := range w.Insts {
		if !inst.Sys.Ready() {
			return false
		}
	}
	return true
}

// WarmUp runs the simulation until every group is ready, panicking with the
// first group that never elects.
func (w *PlacementWorld) WarmUp() {
	for pg, inst := range w.Insts {
		if !abcast.AwaitReady(w.Sim, inst.Sys.Ready) {
			panic(fmt.Sprintf("placement: pg %d (%s on fleet %v) never became ready",
				pg, inst.Sys.Name(), w.Map.Groups[pg].Members))
		}
	}
}

// Close releases the shared interconnect's pooled resources once, after
// every group is done (per-instance Close skips shared interconnects).
func (w *PlacementWorld) Close() {
	if w.Fabric != nil {
		w.Fabric.Release()
	}
}

// ChaosTarget exposes the world's fault surface: the fleet of its groups,
// with Map's placement as the replica → node table and FleetProcs as the
// nodes' CPUs. The Leader sentinel names the node leading group 0.
func (w *PlacementWorld) ChaosTarget() chaos.Target {
	f := &chaos.Fleet{Procs: w.FleetProcs, Rand: w.Sim.Rand()}
	for pg, inst := range w.Insts {
		f.Members = append(f.Members, inst.member)
		f.Hosts = append(f.Hosts, w.Map.Groups[pg].Members)
	}
	return f
}

// PGResult is one group's share of a multi-group run.
type PGResult struct {
	// PG, Leader, and Members echo the group's slot in the map.
	PG      int
	Leader  int
	Members []int
	// Committed and OpsPerSec are the group's measured YCSB throughput;
	// Latency its commit-latency distribution.
	Committed int
	OpsPerSec float64
	Latency   metrics.Histogram
	// DeliveryFP folds every replica's delivery sequence; two same-seed
	// runs must match per group, not just in aggregate.
	DeliveryFP digest.Sum
	// SafetyErr is the group's first atomic-broadcast violation, if any.
	SafetyErr error
	// Violations/ObserveChecks/ObserveDigest carry the group's observer
	// verdict when the run was observed; zero otherwise.
	Violations    int64
	ObserveChecks uint64
	ObserveDigest digest.Sum
}

// PlacementResult is one multi-group run: per-group shares plus the
// aggregate the scale-out figure plots.
type PlacementResult struct {
	System string
	Config PlacementConfig
	// Groups holds one result per PG, in PG-ID order.
	Groups []PGResult
	// Committed and OpsPerSec aggregate every group's measured load;
	// Latency merges every group's samples; Elapsed is the measured
	// simulated interval.
	Committed int
	OpsPerSec float64
	Latency   metrics.Histogram
	Elapsed   time.Duration
	// MapFP is the placement map's fingerprint; TraceFP/TraceEvents the
	// shared simulation's event-stream fingerprint; Fingerprint folds the
	// map, every group's delivery and observer digests, and the trace into
	// one seed-replay digest.
	MapFP       digest.Sum
	TraceFP     digest.Sum
	TraceEvents uint64
	Fingerprint digest.Sum
}

// pgWorkload is one group's YCSB-load stream: zipfian popularity over the
// group's own key shard. Shard membership comes from the placement map's
// key routing, so every key a group's client writes belongs to that group;
// the shard's keys are already hash-scattered over the keyspace, which is
// what YCSB's scrambled-zipfian otherwise provides.
type pgWorkload struct {
	keys  []string
	zipf  *ycsb.Zipfian
	rng   *rand.Rand
	value []byte // every op's value is drawn into this one buffer
}

// newPGWorkloads shards the keyspace by the map's routing and builds one
// zipfian stream per group, each seeded from (seed, pg).
func newPGWorkloads(m *placement.Map, records uint64, value int, seed int64) []*pgWorkload {
	shards := make([][]string, m.Config.PGs)
	for i := uint64(0); i < records; i++ {
		key := fmt.Sprintf("user%016d", i)
		pg := m.KeyPG(key)
		shards[pg] = append(shards[pg], key)
	}
	out := make([]*pgWorkload, m.Config.PGs)
	for pg, keys := range shards {
		if len(keys) == 0 {
			panic(fmt.Sprintf("placement: pg %d owns no keys — raise Records above ~20x the PG count", pg))
		}
		out[pg] = &pgWorkload{
			keys:  keys,
			zipf:  ycsb.NewZipfian(uint64(len(keys)), 0.99),
			rng:   rand.New(rand.NewSource(seed + 1000003*int64(pg+1))),
			value: make([]byte, value),
		}
	}
	return out
}

// nextOp draws the group's next write. The value is valid until the next
// call: Replicated.Update encodes a copy before it returns.
func (w *pgWorkload) nextOp() (string, []byte) {
	key := w.keys[w.zipf.Next(w.rng)%uint64(len(w.keys))]
	w.rng.Read(w.value)
	return key, w.value
}

// RunPlacementLoad drives per-group closed-loop YCSB load over an
// already-warm world and returns the measured result. Safety violations
// and observer verdicts are recorded in the result, not raised — callers
// running fault schedules (the chaos smoke tests) inspect them; the
// fault-free figure path (RunPlacementYCSB) panics on any.
func RunPlacementLoad(w *PlacementWorld, cfg PlacementConfig) PlacementResult {
	m := w.Map
	res := PlacementResult{
		System: w.Insts[0].Sys.Name(),
		Config: cfg,
		Groups: make([]PGResult, m.Config.PGs),
		MapFP:  m.Fingerprint(),
	}
	loads := newPGWorkloads(m, cfg.Records, cfg.Value, cfg.Seed)
	checkers := make([]*abcast.Checker, m.Config.PGs)
	measuring := false
	sim := w.Sim

	for pg := range w.Insts {
		inst := w.Insts[pg]
		g := m.Groups[pg]
		pr := &res.Groups[pg]
		pr.PG, pr.Leader = g.ID, g.Leader
		pr.Members = append([]int(nil), g.Members...)

		rm := kvstore.NewReplicated(inst.Sys, m.Config.PGSize)
		checker := inst.Check(func(replica int, payload []byte) {
			if err := rm.ApplyAt(replica, payload); err != nil {
				panic(fmt.Sprintf("placement: pg %d delivered a bad op: %v", pg, err))
			}
		})
		checkers[pg] = checker

		load := loads[pg]
		reqs := abcast.Requests{OnAck: func(r *abcast.Request) {
			if measuring {
				pr.Committed++
				pr.Latency.Add(sim.Now().Sub(r.Sent))
			}
		}}
		// Loop's ids shadow kvstore.Replicated's op-ID counter (both advance
		// by one per Update), so broadcasts register with the checker under
		// the ID the delivered payload will carry.
		abcast.Loop(sim, inst.Sys, cfg.WindowPerPG, func(id uint64, next func()) {
			key, value := load.nextOp()
			checker.OnBroadcast(id)
			r := reqs.Take(id, sim.Now(), next)
			r.Payload = rm.Update(r.Payload, kvstore.OpSet, key, value, r.Done)
		})
	}

	sim.RunFor(cfg.Warmup)
	measuring = true
	start := sim.Now()
	sim.RunFor(cfg.Measure)
	measuring = false
	res.Elapsed = sim.Now().Sub(start)

	fp := digest.Offset.Uint64(uint64(res.MapFP))
	for pg := range res.Groups {
		pr := &res.Groups[pg]
		pr.OpsPerSec = metrics.Throughput(pr.Committed, res.Elapsed)
		pr.SafetyErr = checkers[pg].Err()
		pr.DeliveryFP = checkers[pg].Fingerprint()
		pr.Violations, pr.ObserveChecks, pr.ObserveDigest = w.Insts[pg].verdict()
		res.Committed += pr.Committed
		res.Latency.Merge(&pr.Latency)
		fp = fp.Uint64(uint64(pr.Committed)).Uint64(uint64(pr.DeliveryFP)).
			Uint64(uint64(pr.ObserveDigest)).Uint64(pr.ObserveChecks).
			Uint64(uint64(pr.Violations))
	}
	res.OpsPerSec = metrics.Throughput(res.Committed, res.Elapsed)
	res.TraceFP = w.Tracer.Fingerprint()
	res.TraceEvents = w.Tracer.Emitted()
	res.Fingerprint = fp.Uint64(uint64(res.Committed)).Uint64(uint64(res.Elapsed)).
		Uint64(uint64(res.TraceFP)).Uint64(res.TraceEvents)
	return res
}

// RunPlacementYCSB is the scale-out figure's unit of work: build the map,
// boot every group in one simulation, warm them all up, and measure
// per-group YCSB load. The run is fault-free, so any safety violation or
// observer finding is a protocol bug and panics with the witness.
func RunPlacementYCSB(cfg PlacementConfig) PlacementResult {
	m, err := placement.Build(cfg.Placement)
	if err != nil {
		panic("placement: " + err.Error())
	}
	w := NewPlacementWorld(cfg.Kind, m, cfg.Seed, cfg.Observe)
	defer w.Close()
	w.WarmUp()
	res := RunPlacementLoad(w, cfg)
	for pg := range res.Groups {
		pr := &res.Groups[pg]
		if pr.SafetyErr != nil {
			panic(fmt.Sprintf("placement: pg %d violated safety under fault-free load: %v", pg, pr.SafetyErr))
		}
		if pr.Violations > 0 {
			panic(fmt.Sprintf("placement: pg %d violated invariants under fault-free load:\n%s",
				pg, w.Insts[pg].Observer.Report()))
		}
	}
	return res
}

// RunPlacementSweep measures one configuration per PG count on a worker
// pool. Each point is a sealed world — its own simulator seeded only from
// its config — so the merged results are byte-identical for every worker
// count, including 1. workers <= 0 selects GOMAXPROCS.
func RunPlacementSweep(cfgs []PlacementConfig, workers int) ([]PlacementResult, sweep.Report) {
	return sweep.Run(len(cfgs), workers, func(i int) PlacementResult {
		return RunPlacementYCSB(cfgs[i])
	})
}

// VerifyPlacementReplay runs the same configuration `runs` times and fails
// on the first divergence, comparing the runs as artifacts so the report
// names the first field — and, inside a point, the first group — that
// drifted.
func VerifyPlacementReplay(cfg PlacementConfig, runs int) error {
	return compareRuns("placement", runs, func(a *Artifact) error {
		run := RunPlacementYCSB(cfg)
		a.AddPlacement(&run)
		return nil
	})
}

// MinPGOps and MaxPGOps return the slowest and fastest group's throughput
// — the spread the scale-out table reports next to the aggregate.
func (r *PlacementResult) MinPGOps() float64 {
	min := r.Groups[0].OpsPerSec
	for _, g := range r.Groups[1:] {
		if g.OpsPerSec < min {
			min = g.OpsPerSec
		}
	}
	return min
}

// MaxPGOps returns the fastest group's throughput.
func (r *PlacementResult) MaxPGOps() float64 {
	max := r.Groups[0].OpsPerSec
	for _, g := range r.Groups[1:] {
		if g.OpsPerSec > max {
			max = g.OpsPerSec
		}
	}
	return max
}

// PrintPlacement renders the scale-out figure: aggregate YCSB throughput
// versus PG count, with the per-group spread and the determinism digests.
func PrintPlacement(w io.Writer, results []PlacementResult) {
	fmt.Fprintln(w, "Scale-out: aggregate YCSB throughput (ops/sec) vs placement-group count")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "system\tpgs\tpg-size\tfleet\treplicas/node\tagg-ops/sec\tpg-min\tpg-max\tlat-p50(us)\tlat-p99(us)\tfingerprint\n")
	for i := range results {
		r := &results[i]
		c := r.Config.Placement
		s := r.Latency.Export()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\t%.0f\t%.0f\t%.0f\t%.1f\t%.1f\t%s\n",
			r.System, c.PGs, c.PGSize, c.Fleet,
			float64(c.PGs*c.PGSize)/float64(c.Fleet),
			r.OpsPerSec, r.MinPGOps(), r.MaxPGOps(),
			us(s.P50), us(s.P99), r.Fingerprint.Hex())
	}
	tw.Flush()
}
