package bench

import (
	"fmt"
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/acuerdo"
	"acuerdo/internal/chaos"
)

// DurableKinds lists the systems with a durable storage mode, in run order.
var durableKinds = []Kind{Acuerdo, Etcd, Libpaxos, Zookeeper}

func durableChaos(seed int64) ChaosConfig {
	cfg := shortChaos(seed)
	cfg.Observe = true
	cfg.Durability = Durable
	return cfg
}

func tornStorm() chaos.Scenario {
	return chaos.TornWriteRestart(35*time.Millisecond, 10*time.Millisecond)
}

// TestDurableTornWriteRestart is the acceptance scenario: a torn write at
// the leader's crash instant must recover from the checksummed WAL prefix
// with zero invariant violations, no safety violation, and bytes accounted
// as read back from disk. The long case runs five strikes over three
// replicas, so some replica is power-cut twice having led — and appended —
// in between: what it wrote after its first restart must not sit behind
// the first cut's torn garbage, or the second replay stops there and the
// durable prefix is lost (the durable-prefix observer invariant fires).
// Acuerdo runs that storm on two more seeds: at 5 and 7 a request record
// posted to the leader as it lost power was dropped at its dead NIC, and
// before the client reconnected on restart (ringbuf.ClientLink.Reconnect)
// the run wedged once that replica led again.
func TestDurableTornWriteRestart(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		horizon time.Duration
		short   []Kind
		acuerdo []int64 // further seeds for Acuerdo alone
	}{
		{"once-per-replica", 7, 80 * time.Millisecond, []Kind{Acuerdo, Etcd}, nil},
		{"same-replica-twice", 6, 200 * time.Millisecond, []Kind{Acuerdo, Zookeeper}, []int64{5, 7}},
	} {
		kinds := durableKinds
		if testing.Short() {
			kinds = tc.short
		}
		for _, kind := range kinds {
			seeds := []int64{tc.seed}
			if kind == Acuerdo {
				seeds = append(seeds, tc.acuerdo...)
			}
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed-%d", tc.name, kind, seed), func(t *testing.T) {
					cfg := durableChaos(seed)
					cfg.Horizon = tc.horizon
					r := RunScenario(kind, tornStorm(), cfg)
					if r.SafetyErr != nil {
						t.Fatalf("safety violation: %v", r.SafetyErr)
					}
					if r.Violations != 0 {
						t.Fatalf("%d invariant violations:\n%v", r.Violations, r.ViolationReports)
					}
					if r.ObserveChecks == 0 {
						t.Fatal("observer ran no checks")
					}
					if r.Watchdog != nil {
						t.Fatalf("run wedged at %v", r.Watchdog.FiredAt)
					}
					if r.DiskRecoveredBytes == 0 {
						t.Fatal("torn restart recovered no bytes from disk")
					}
					if r.DurableDigest == 0 {
						t.Fatal("durable digest empty on a durable run")
					}
				})
			}
		}
	}
}

// TestDurableRollingRestartKeepsAcceptedTail is the shortest plan of
// ROADMAP 1(iv), with the timing of the -short rolling-restart lane: a
// durable Acuerdo group under a closed loop; follower A crashes and
// recovers 8 ms later, then follower B does the same 33 ms after A. Before
// re-admission neither rejoiner was taken back while the leader lived, so at
// B's restart A and B formed a quorum of two rejoiners: B won an epoch with
// both votes, both carrying B's recovered WAL frontier, below what B had
// acknowledged before its crash, and the entries the leader had committed on
// those acknowledgements were lost (the checker's fresh delivery
// mid-replay). Now the leader re-admits A as soon as it sees A's incarnation
// rise, so at B's restart A is a follower again: B cannot win with A's vote,
// nothing is lost, and both rejoiners catch up with the leader.
func TestDurableRollingRestartKeepsAcceptedTail(t *testing.T) {
	const ms = time.Millisecond
	inst := NewInstance(Acuerdo, 3, 1, Options{Durability: Durable})
	defer inst.Close()
	sim := inst.Sim
	chk := inst.Check(nil)
	abcast.Loop(sim, inst.Sys, chaosWindow, func(id uint64, next func()) {
		p := make([]byte, chaosMsgSize)
		abcast.PutMsgID(p, id)
		chk.OnBroadcast(id)
		inst.Sys.Submit(p, next)
	})
	ldr := inst.Group.LeaderIdx()
	a, b := (ldr+1)%3, (ldr+2)%3
	wonWithLeaderUp := false
	for _, i := range []int{a, b} {
		inst.AcuerdoCluster.Replicas[i].OnElected = func(acuerdo.Epoch) {
			wonWithLeaderUp = wonWithLeaderUp || inst.Group.Proc(ldr).Alive()
		}
	}
	chaos.NewEngine(sim, inst.ChaosTarget()).Schedule(sim.Now().Add(chaosSettle), chaos.Plan{Name: "1(iv)", Actions: []chaos.Action{
		{At: 25 * ms, Kind: chaos.ACrash, Node: a},
		{At: 33 * ms, Kind: chaos.ARecover, Node: a},
		{At: 58 * ms, Kind: chaos.ACrash, Node: b},
		{At: 66 * ms, Kind: chaos.ARecover, Node: b},
	}})
	sim.RunFor(chaosSettle + 80*ms)
	if err := chk.Err(); err != nil {
		t.Fatalf("checker: %v", err)
	}
	if wonWithLeaderUp {
		t.Fatalf("a rejoiner won an epoch while leader %d was up", ldr)
	}
	if l := inst.Group.LeaderIdx(); l != ldr {
		t.Fatalf("leader %d at the end, want %d throughout", l, ldr)
	}
	lead := len(chk.Delivered(ldr))
	for _, i := range []int{a, b} {
		if d := len(chk.Delivered(i)); d+chaosWindow < lead {
			t.Fatalf("rejoiner %d delivered %d against the leader's %d", i, d, lead)
		}
	}
}

// TestDurableChaosDeterminism: a durable chaos run is a pure function of its
// seed — fingerprint, observer digest, durable device digest, and the
// recovery-byte split all replay bit-for-bit.
func TestDurableChaosDeterminism(t *testing.T) {
	kinds := durableKinds
	if testing.Short() {
		kinds = []Kind{Etcd}
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			a := RunScenario(kind, tornStorm(), durableChaos(11))
			b := RunScenario(kind, tornStorm(), durableChaos(11))
			sameChaosRun(t, durableChaos(11), a, b)
		})
	}
}

// TestDiskStallStormRidesThrough: fsync stalls at the leader slow durable
// commits but must not break safety or invariants on any durable system.
func TestDiskStallStormRidesThrough(t *testing.T) {
	sc := chaos.DiskStallStorm(3*time.Millisecond, 25*time.Millisecond)
	kinds := durableKinds
	if testing.Short() {
		kinds = []Kind{Acuerdo}
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			r := RunScenario(kind, sc, durableChaos(13))
			if r.SafetyErr != nil {
				t.Fatalf("safety violation: %v", r.SafetyErr)
			}
			if r.Violations != 0 {
				t.Fatalf("%d invariant violations:\n%v", r.Violations, r.ViolationReports)
			}
			if r.Acks == 0 {
				t.Fatal("no commits under fsync stalls")
			}
		})
	}
}

// TestAmnesiaPaysInFabricBytes compares the storage models under the same
// kill storm: the amnesia baseline loses its disk at every crash and must
// refill state over the interconnect, while the durable run reads most of it
// back locally. Zookeeper is the subject because its state transfer is a
// one-shot sync diff, so the refill completes inside the short window
// (etcd's one-entry-per-RTT nextIndex backtracking would not).
func TestAmnesiaPaysInFabricBytes(t *testing.T) {
	cfgD := durableChaos(9)
	cfgA := durableChaos(9)
	cfgA.Durability = Amnesia
	d := RunScenario(Zookeeper, storm(), cfgD)
	a := RunScenario(Zookeeper, storm(), cfgA)
	if d.SafetyErr != nil || a.SafetyErr != nil {
		t.Fatalf("safety violation: durable=%v amnesia=%v", d.SafetyErr, a.SafetyErr)
	}
	if d.Violations != 0 {
		t.Fatalf("durable run: %d invariant violations:\n%v", d.Violations, d.ViolationReports)
	}
	if a.Violations != 0 {
		t.Fatalf("amnesia run: %d invariant violations:\n%v", a.Violations, a.ViolationReports)
	}
	if d.DiskRecoveredBytes == 0 {
		t.Fatal("durable run read nothing back from disk")
	}
	if a.FabricRecoveryBytes == 0 {
		t.Fatal("amnesia run re-shipped nothing over the interconnect")
	}
	if a.FabricRecoveryBytes < d.FabricRecoveryBytes {
		t.Fatalf("amnesia re-shipped fewer bytes (%d) than durable (%d)",
			a.FabricRecoveryBytes, d.FabricRecoveryBytes)
	}
}

// TestAmnesiaIsAnInstanceOption: Options.Durability alone decides the storage
// model. An amnesia instance built outside RunScenario loses a follower's
// disk when its chaos target crashes it; a durable one keeps the WAL.
func TestAmnesiaIsAnInstanceOption(t *testing.T) {
	const wal = "acuerdo.wal" // acuerdo's one log file
	for _, mode := range []Durability{Durable, Amnesia} {
		t.Run(string(mode), func(t *testing.T) {
			inst := NewInstance(Acuerdo, 3, 1, Options{Durability: mode})
			defer inst.Close()
			abcast.RunClosedLoop(inst.Sim, inst.Sys, abcast.LoadConfig{
				Window: 4, MsgSize: 16, Warmup: time.Millisecond, Measure: 4 * time.Millisecond,
			})
			f := (inst.Group.LeaderIdx() + 1) % 3
			if _, durable := inst.Disks[f].Size(wal); durable == 0 {
				t.Fatalf("follower %d made nothing durable", f)
			}
			inst.ChaosTarget().Crash(f)
			_, durable := inst.Disks[f].Size(wal)
			if kept := durable > 0; kept != (mode == Durable) {
				t.Fatalf("after Crash(%d) follower holds %d durable WAL bytes, want them kept = %v", f, durable, mode == Durable)
			}
		})
	}
}

// TestVolatileChaosResultUnchanged pins the default: without
// ChaosConfig.Durability the instance has no disks and the result's
// durability fields stay zero.
func TestVolatileChaosResultUnchanged(t *testing.T) {
	r := RunScenario(Zookeeper, storm(), shortChaos(5))
	if r.Durability != Volatile {
		t.Fatalf("default durability = %q, want volatile", r.Durability)
	}
	if r.DiskRecoveredBytes != 0 || r.FabricRecoveryBytes != 0 || r.DurableDigest != 0 {
		t.Fatalf("volatile run grew durability accounting: disk=%d net=%d digest=%016x",
			r.DiskRecoveredBytes, r.FabricRecoveryBytes, r.DurableDigest)
	}
}

// TestDurabilityUnsupportedKindsStayVolatile: Derecho and APUS have no
// durable mode (TestGroupContract pins which kinds do); asking for one must
// leave them volatile rather than panic, so cross-system sweeps can share a
// configuration.
func TestDurabilityUnsupportedKindsStayVolatile(t *testing.T) {
	inst := NewInstance(Apus, 3, 1, Options{Durability: Durable})
	if inst.Disks != nil {
		t.Fatal("apus grew disks despite having no durable mode")
	}
	if inst.DurableDigest() != 0 || inst.DiskRecoveredBytes() != 0 {
		t.Fatal("volatile instance reports durability accounting")
	}
}
