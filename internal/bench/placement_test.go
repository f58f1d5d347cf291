package bench

import (
	"reflect"
	"testing"
	"time"

	"acuerdo/internal/chaos"
	"acuerdo/internal/placement"
	"acuerdo/internal/trace"
)

// shortPlacement returns a wall-affordable multi-group configuration for
// tests: small fleet, short phases, observers on.
func shortPlacement(kind Kind, pgs int) PlacementConfig {
	cfg := DefaultPlacement(kind, pgs)
	cfg.Placement.Fleet = 6
	cfg.Placement.Domains = 3
	cfg.Placement.Seed = 1
	cfg.WindowPerPG = 8
	cfg.Warmup = 2 * time.Millisecond
	cfg.Measure = 6 * time.Millisecond
	cfg.Observe = true
	return cfg
}

// TestPlacementReplay pins the tentpole determinism contract: a whole
// multi-group simulation — every group's delivery sequences, observer
// digests, and the shared trace — replays byte-identically from its seed.
func TestPlacementReplay(t *testing.T) {
	if err := VerifyPlacementReplay(shortPlacement(Acuerdo, 2), 2); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementReplayTCP repeats the replay check on a TCP-class system so
// the shared-net path is covered too.
func TestPlacementReplayTCP(t *testing.T) {
	if err := VerifyPlacementReplay(shortPlacement(Etcd, 2), 2); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementSerialParallelIdentical is the sweep's sealed-world
// property: running the PG-count ladder serially and on a worker pool must
// produce identical results, fingerprints included.
func TestPlacementSerialParallelIdentical(t *testing.T) {
	cfgs := []PlacementConfig{shortPlacement(Acuerdo, 1), shortPlacement(Acuerdo, 2)}
	serial, _ := RunPlacementSweep(cfgs, 1)
	parallel, _ := RunPlacementSweep(cfgs, 4)
	a, b := NewArtifact("serial", "placement"), NewArtifact("parallel", "placement")
	for i := range serial {
		a.AddPlacement(&serial[i])
		b.AddPlacement(&parallel[i])
	}
	if err := Compare(a, b, -1); err != nil {
		t.Fatalf("parallel ladder differs from serial: %v", err)
	}
}

// TestPlacementScalesOut checks the figure's shape at its cheap end: four
// groups on a shared fleet must outrun one group, and every group must
// make progress.
func TestPlacementScalesOut(t *testing.T) {
	one := RunPlacementYCSB(shortPlacement(Acuerdo, 1))
	four := RunPlacementYCSB(shortPlacement(Acuerdo, 4))
	if four.OpsPerSec <= one.OpsPerSec {
		t.Fatalf("4 PGs (%.0f ops/sec) did not outrun 1 PG (%.0f ops/sec)",
			four.OpsPerSec, one.OpsPerSec)
	}
	for _, g := range four.Groups {
		if g.Committed == 0 {
			t.Fatalf("pg %d committed nothing: %+v", g.PG, g)
		}
	}
}

// TestPlacementChaosIsolation is the two-group smoke test: a leader-kill
// storm aimed at group 0's fleet node must not stall group 1. Strikes
// crash the whole fleet node, so a co-located group-1 replica may die too
// — its ring still has quorum and must keep committing, with no safety or
// invariant violation in either group.
func TestPlacementChaosIsolation(t *testing.T) {
	cfg := shortPlacement(Acuerdo, 2)
	cfg.Measure = 60 * time.Millisecond
	m, err := placement.Build(cfg.Placement)
	if err != nil {
		t.Fatal(err)
	}
	w := NewPlacementWorld(cfg.Kind, m, cfg.Seed, cfg.Observe)
	defer w.Close()
	w.WarmUp()

	sc := chaos.LeaderKillStorm(15*time.Millisecond, 4*time.Millisecond)
	plan := sc.Build(w.Sim.Rand(), m.Config.Fleet, 50*time.Millisecond)
	engine := chaos.NewEngine(w.Sim, w.ChaosTarget())
	engine.Schedule(w.Sim.Now().Add(cfg.Warmup), plan)

	res := RunPlacementLoad(w, cfg)

	crashes := 0
	for _, f := range engine.Fired() {
		if f.Action.Kind == chaos.ACrash && f.Node >= 0 {
			crashes++
		}
	}
	if crashes == 0 {
		t.Fatalf("storm fired no crashes: %+v", engine.Fired())
	}
	for _, g := range res.Groups {
		if g.SafetyErr != nil {
			t.Fatalf("pg %d violated safety under the storm: %v", g.PG, g.SafetyErr)
		}
		if g.Violations > 0 {
			t.Fatalf("pg %d: %d invariant violations under the storm:\n%s",
				g.PG, g.Violations, w.Insts[g.PG].Observer.Report())
		}
	}
	// The untargeted group must have kept committing through the storm —
	// at least half of what it manages per measured millisecond fault-free
	// would be ~its window drained hundreds of times; 100 commits over
	// 60 ms is a loose floor far above a stalled ring's zero.
	if got := res.Groups[1].Committed; got < 100 {
		t.Fatalf("pg 1 nearly stalled during pg 0's storm: %d commits in %v (pg0: %d)",
			got, res.Elapsed, res.Groups[0].Committed)
	}
}

// TestFleetFanOut holds the placement world's chaos target to its map: a
// fleet-node action lands on exactly the replicas Map.HostedOn names, a link
// action on exactly the intra-group links between two nodes' replicas, and
// the Leader sentinel on the node leading group 0.
func TestFleetFanOut(t *testing.T) {
	cfg := shortPlacement(Acuerdo, 2)
	m, err := placement.Build(cfg.Placement)
	if err != nil {
		t.Fatal(err)
	}
	w := NewPlacementWorld(cfg.Kind, m, cfg.Seed, false)
	defer w.Close()
	w.WarmUp()
	tgt := w.ChaosTarget()
	if tgt.Replicas() != m.Config.Fleet || m.Config.Fleet != 6 {
		t.Fatalf("target spans %d nodes, map fleet %d, want 6", tgt.Replicas(), m.Config.Fleet)
	}
	if li := w.Insts[0].Group.LeaderIdx(); tgt.Leader() != m.Groups[0].Members[li] {
		t.Fatalf("Leader() = %d, want node %d hosting group 0's leader (replica %d)", tgt.Leader(), m.Groups[0].Members[li], li)
	}

	// Every node id the shared fabric gave a replica, and who hosts it.
	links := w.Fabric.Links
	type replica struct{ pg, idx, node, id int }
	var all []replica
	for pg, g := range m.Groups {
		for idx, node := range g.Members {
			all = append(all, replica{pg, idx, node, w.Insts[pg].Group.NodeID(idx)})
		}
	}
	i, j := m.Groups[0].Members[0], m.Groups[0].Members[1]
	tgt.CutOneWay(i, j)
	cut := 0
	for _, a := range all {
		for _, b := range all {
			want := a.pg == b.pg && a.node == i && b.node == j
			if links.CutOneWay(a.id, b.id) != want {
				t.Fatalf("CutOneWay(%d, %d): link pg%d/r%d -> pg%d/r%d cut = %v, want %v", i, j, a.pg, a.idx, b.pg, b.idx, !want, want)
			}
			if want {
				cut++
			}
		}
	}
	tgt.HealOneWay(i, j)
	for _, a := range all {
		for _, b := range all {
			if links.Partitioned(a.id, b.id) {
				t.Fatalf("HealOneWay(%d, %d) left pg%d/r%d - pg%d/r%d partitioned", i, j, a.pg, a.idx, b.pg, b.idx)
			}
		}
	}
	if cut == 0 {
		t.Fatal("nodes hosting two replicas of group 0 share no link")
	}

	// The busiest node, so a crash spans both groups where the map allows it.
	k := 0
	for n := range m.Config.Fleet {
		if len(m.HostedOn(n)) > len(m.HostedOn(k)) {
			k = n
		}
	}
	hosted := make(map[[2]int]bool)
	for _, pr := range m.HostedOn(k) {
		hosted[pr] = true
	}
	down := func() map[[2]int]bool {
		out := make(map[[2]int]bool)
		for _, a := range all {
			if w.Insts[a.pg].AcuerdoCluster.Replicas[a.idx].Node.Crashed() {
				out[[2]int{a.pg, a.idx}] = true
			}
		}
		return out
	}
	tgt.Crash(k)
	if got := down(); !reflect.DeepEqual(got, hosted) {
		t.Fatalf("Crash(%d) downed %v, want exactly HostedOn = %v", k, got, hosted)
	}
	// The world is volatile: disk actions reach no device, and do nothing.
	tgt.DiskStall(k, time.Millisecond)
	tgt.DiskTorn(k)
	tgt.DiskCorrupt(k)
	if n := w.Tracer.Counter(trace.CtrDiskFaults); n != 0 {
		t.Fatalf("disk actions on a volatile world applied %d faults", n)
	}
	tgt.Restart(k)
	if got := down(); len(got) != 0 {
		t.Fatalf("Restart(%d) left %v down", k, got)
	}
}

// TestNextOpAllocFree: a group's write stream draws every value into the
// group's one buffer (Replicated.Update encodes a copy before it returns).
func TestNextOpAllocFree(t *testing.T) {
	m, err := placement.Build(shortPlacement(Acuerdo, 2).Placement)
	if err != nil {
		t.Fatal(err)
	}
	w := newPGWorkloads(m, 1000, 100, 5)[1]
	if n := testing.AllocsPerRun(1000, func() { w.nextOp() }); n != 0 {
		t.Errorf("%v allocs per nextOp, want 0", n)
	}
}
