package bench

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/simnet"
)

// TestGroupContract holds every system to abcast.Group through the bench
// wiring alone: no per-system knowledge beyond which kinds are durable.
func TestGroupContract(t *testing.T) {
	const n = 3
	durable := make(map[Kind]bool)
	for _, k := range durableKinds {
		durable[k] = true
	}
	for _, kind := range AllKinds {
		t.Run(string(kind), func(t *testing.T) {
			inst := NewInstance(kind, n, 5, Options{Durability: Durable})
			defer inst.Close()
			g, tgt := inst.Group, inst.ChaosTarget()
			if g.Size() != n || tgt.Replicas() != n {
				t.Fatalf("Size() = %d, target Replicas() = %d, want %d", g.Size(), tgt.Replicas(), n)
			}
			ids := make(map[int]bool)
			for i := 0; i < n; i++ {
				if g.Proc(i) == nil {
					t.Fatalf("Proc(%d) is nil", i)
				}
				if ids[g.NodeID(i)] {
					t.Fatalf("NodeID(%d) = %d repeats an earlier replica's", i, g.NodeID(i))
				}
				ids[g.NodeID(i)] = true
			}
			ldr := g.LeaderIdx()
			if ldr < 0 || ldr >= n || tgt.Leader() != ldr {
				t.Fatalf("after warm-up LeaderIdx() = %d, target Leader() = %d", ldr, tgt.Leader())
			}
			if _, ok := g.(abcast.DurableGroup); ok != durable[kind] || (inst.Disks != nil) != durable[kind] {
				t.Fatalf("DurableGroup = %v, disks attached = %v, want both %v", ok, inst.Disks != nil, durable[kind])
			}

			seen := make([]int, n)
			chk := inst.Check(func(replica int, payload []byte) { seen[replica]++ })
			res := abcast.RunClosedLoop(inst.Sim, inst.Sys, abcast.LoadConfig{
				Window: 4, MsgSize: 16, Warmup: time.Millisecond, Measure: 4 * time.Millisecond,
				OnSubmit: chk.OnBroadcast,
			})
			if res.Committed == 0 {
				t.Fatal("committed nothing")
			}
			for i, c := range seen {
				if c == 0 || len(chk.Delivered(i)) == 0 {
					t.Fatalf("Check's tap never saw replica %d (apply calls %v)", i, seen)
				}
			}
			if err := chk.Err(); err != nil {
				t.Fatal(err)
			}

			// Check hooks the restart path only where a replica has a disk
			// to replay from.
			restarted := -1
			openWindow := inst.member.BeforeRestart
			if (openWindow != nil) != durable[kind] {
				t.Fatalf("Check hooked Restart = %v, want %v", openWindow != nil, durable[kind])
			}
			inst.member.BeforeRestart = func(i int) {
				restarted = i
				if openWindow != nil {
					openWindow(i)
				}
			}
			tgt.Crash(ldr)
			if g.Proc(ldr).Alive() || g.LeaderIdx() == ldr {
				t.Fatalf("Crash(%d): proc alive = %v, LeaderIdx() = %d", ldr, g.Proc(ldr).Alive(), g.LeaderIdx())
			}
			inst.Sim.RunFor(30 * time.Millisecond)
			tgt.Restart(ldr)
			if restarted != ldr {
				t.Fatalf("BeforeRestart hook saw %d, want %d", restarted, ldr)
			}
			// After a volatile restart a re-delivery is still a duplicate.
			if !durable[kind] {
				if err := chk.OnDeliver(ldr, chk.Delivered(ldr)[0]); err == nil {
					t.Fatalf("Check excused a re-delivery after the volatile Restart(%d)", ldr)
				}
			}
			// Restart is a documented no-op where a system has no rejoin
			// path (derecho members, the APUS leader); where the replica did
			// come back, the group must serve again.
			inst.Sim.RunFor(50 * time.Millisecond)
			if g.Proc(ldr).Alive() {
				for i := 0; i < 100 && !g.Ready(); i++ {
					inst.Sim.RunFor(5 * time.Millisecond)
				}
				if l := g.LeaderIdx(); !g.Ready() || l < 0 || l >= n {
					t.Fatalf("replica %d rejoined but the group is not serving (Ready %v, LeaderIdx %d)", ldr, g.Ready(), l)
				}
			}
			// A durable restart re-delivers its recovered prefix (libpaxos
			// only a stale tail, possibly empty), and the replay window Check
			// opened absorbs the retrace.
			if durable[kind] {
				t.Logf("Restart(%d) re-delivered %d messages", ldr, seen[ldr]-len(chk.Delivered(ldr)))
				if err := chk.Err(); err != nil {
					t.Fatalf("durable Restart(%d): the replayed prefix was not excused: %v", ldr, err)
				}
			}
		})
	}
}

// TestSubscribeNilDetaches holds every system to abcast.Group's "nil
// detaches": an observer attached through the bench wiring checks a run, and
// once the group subscribes nil it checks nothing more — SST write hooks
// included, which is where Derecho's group used to keep it.
func TestSubscribeNilDetaches(t *testing.T) {
	load := abcast.LoadConfig{Window: 4, MsgSize: 16, Warmup: time.Millisecond, Measure: 4 * time.Millisecond}
	for _, kind := range AllKinds {
		t.Run(string(kind), func(t *testing.T) {
			sim := simnet.New(5)
			obs := NewObserver(sim, kind, 3)
			inst := NewInstanceOn(sim, kind, 3, Options{Observer: obs})
			defer inst.Close()
			inst.warmUp()
			abcast.RunClosedLoop(sim, inst.Sys, load)
			if obs.Checks() == 0 {
				t.Fatal("the attached observer checked nothing")
			}
			inst.Group.Subscribe(nil)
			before := obs.Checks()
			if res := abcast.RunClosedLoop(sim, inst.Sys, load); res.Committed == 0 {
				t.Fatal("committed nothing after the detach")
			}
			if after := obs.Checks(); after != before {
				t.Fatalf("Subscribe(nil) left the observer attached: %d checks after the detach", after-before)
			}
		})
	}
}

// TestSubmitPayloadNotRetained pins abcast.System.Submit's buffer rule —
// the payload is the caller's again once done runs — which lets
// RunClosedLoop's request records carry their next request in the same
// buffer. Every system runs the same closed loop twice, once with each
// buffer filled with 0xFF the instant its ack runs: a system that still read
// an acknowledged request's bytes (a queued view, an armed retry that re-sent
// without looking up its id) would order or deliver something else, and the
// delivery fingerprints would differ. The run outlasts every system's retry
// timeout, so armed re-sends fire after their requests' acks.
func TestSubmitPayloadNotRetained(t *testing.T) {
	for _, kind := range AllKinds {
		t.Run(string(kind), func(t *testing.T) {
			run := func(poison bool) (uint64, int) {
				inst := NewInstance(kind, 3, 3, Options{})
				defer inst.Close()
				chk := inst.Check(nil)
				sys := inst.Sys
				if poison {
					sys = poisonOnAck{sys}
				}
				res := abcast.RunClosedLoop(inst.Sim, sys, abcast.LoadConfig{
					Window: 8, MsgSize: 32, Warmup: time.Millisecond, Measure: 60 * time.Millisecond,
					OnSubmit: chk.OnBroadcast,
				})
				if err := chk.Err(); err != nil {
					t.Fatalf("poisoned %v: %v", poison, err)
				}
				return uint64(chk.Fingerprint()), res.Committed
			}
			fp, n := run(false)
			pfp, pn := run(true)
			if n == 0 {
				t.Fatal("committed nothing")
			}
			if fp != pfp || n != pn {
				t.Fatalf("poisoning acknowledged buffers moved the run: fingerprint %016x, %d commits; poisoned %016x, %d commits", fp, n, pfp, pn)
			}
		})
	}
}

// poisonOnAck fills each payload with 0xFF the instant its ack runs, before
// the closed loop's record carries its next request in the same buffer.
type poisonOnAck struct{ abcast.System }

func (p poisonOnAck) Submit(payload []byte, done func()) {
	p.System.Submit(payload, func() {
		for i := range payload {
			payload[i] = 0xFF
		}
		done()
	})
}

// TestPayloadIntegrity checks what the other oracles do not look at: the
// bytes. Every payload byte is derived from the request id and compared at
// every delivery at every replica, under a closed loop whose window × record
// size exceeds the 1 MiB client request ring, so the client's backlog rewrites
// each slot the moment its credit returns — a replica that still held a view
// of a request (ringbuf's buffer-ownership rule) would read its successor.
// Figure 8 cannot see that: its largest window × size stays under the ring,
// and no slot is refilled while its request is queued. The overwriting record
// is itself a well-formed request, so a stale view surfaces first as the
// checker's no-duplication (the new id delivered in the old one's place);
// both are asserted.
func TestPayloadIntegrity(t *testing.T) {
	const clientRing = 1 << 20 // ringbuf.DefaultConfig, NewClientLink's rings
	fill := func(p []byte, id uint64) {
		abcast.PutMsgID(p, id)
		for i := 8; i < len(p); i++ {
			p[i] = byte(id) + byte(id>>8) + byte(i*7)
		}
	}
	for _, tc := range []struct {
		kind         Kind
		size, window int
	}{
		{Acuerdo, 1000, 2048},
		{DerechoLeader, 1000, 2048},
		{Apus, 1000, 2048},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			if tc.size*tc.window <= clientRing {
				t.Fatalf("window %d x %d B fits the %d B client ring", tc.window, tc.size, clientRing)
			}
			inst := NewInstance(tc.kind, 3, 1, Options{})
			defer inst.Close()
			want := make([]byte, tc.size)
			deliveries, corrupt := 0, ""
			chk := inst.Check(func(replica int, payload []byte) {
				deliveries++
				if corrupt != "" {
					return
				}
				if fill(want, abcast.MsgID(payload)); !bytes.Equal(payload, want) {
					corrupt = fmt.Sprintf("replica %d, delivery %d: request %d arrived with %d bytes that are not the %d it was sent with",
						replica, deliveries, abcast.MsgID(payload), len(payload), tc.size)
				}
			})
			acks := 0
			abcast.Loop(inst.Sim, inst.Sys, tc.window, func(id uint64, next func()) {
				p := make([]byte, tc.size)
				fill(p, id)
				chk.OnBroadcast(id)
				inst.Sys.Submit(p, func() { acks++; next() })
			})
			inst.Sim.RunFor(30 * time.Millisecond)
			if err := chk.Err(); err != nil {
				t.Error(err)
			}
			if corrupt != "" {
				t.Error(corrupt)
			}
			if err := chk.CheckTotalOrder(); err != nil {
				t.Error(err)
			}
			if wraps := acks * tc.size / clientRing; wraps < 3 {
				t.Fatalf("%d acks of %d B wrap the client ring %d times, want several", acks, tc.size, wraps)
			}
			if chk.MinDelivered() < acks/2 {
				t.Fatalf("a replica delivered %d of %d acknowledged requests", chk.MinDelivered(), acks)
			}
		})
	}
}

// TestRestartedReplicaRejoins is the crash-and-restart contract, stated once
// for every system through the bench wiring: kill the leader (or, in a
// follower row, a follower) under a closed loop, let the survivors elect if
// they must and keep committing, restart the victim 20 ms later, run 150 ms
// more. Every row must keep the checker and the invariant observer silent,
// keep the kill-time prefix at every live replica (a killed follower, its own
// count at the kill), commit after the kill and after the restart, and read bytes back from disk on a durable restart. A
// row whose replica rejoins must end within one window of its peers'
// delivered count.
//
// The Acuerdo rows pin today's failure: the restarted replica, leader or
// follower, is never re-admitted while the leader of the day lives and stays
// at the count it had when it crashed (ROADMAP 1(v), volatile and durable
// alike; item 12 is the fix that flips them). A libpaxos follower restarted
// under load rejoins only because its learner asks its peers again while its
// frontier sits below a chosen instance (ROADMAP 1(vi)). Derecho has no join
// protocol, so its Restart leaves the member down and only the survivors are
// held to the prefix. APUS is not a row: its fixed leader's death halts the
// group (TestChaosApusHaltsGracefully).
func TestRestartedReplicaRejoins(t *testing.T) {
	const n, window = 3, 4
	for _, tc := range []struct {
		kind     Kind
		mode     Durability
		follower bool
		rejoins  bool
	}{
		{Acuerdo, Volatile, false, false},
		{Acuerdo, Durable, false, false},
		{DerechoAll, Volatile, false, false},
		{DerechoLeader, Volatile, false, false},
		{Etcd, Volatile, false, true},
		{Etcd, Durable, false, true},
		{Libpaxos, Volatile, false, true},
		{Libpaxos, Durable, false, true},
		{Zookeeper, Volatile, false, true},
		{Zookeeper, Durable, false, true},
		{Acuerdo, Volatile, true, false},
		{Acuerdo, Durable, true, false},
		{Etcd, Volatile, true, true},
		{Etcd, Durable, true, true},
		{Libpaxos, Volatile, true, true},
		{Libpaxos, Durable, true, true},
		{Zookeeper, Volatile, true, true},
		{Zookeeper, Durable, true, true},
	} {
		name := string(tc.kind) + "/" + string(tc.mode)
		if tc.mode == Volatile {
			name = string(tc.kind) + "/volatile"
		}
		if tc.follower {
			name += "/follower"
		}
		t.Run(name, func(t *testing.T) {
			sim := simnet.New(9)
			obs := NewObserver(sim, tc.kind, n)
			inst := NewInstanceOn(sim, tc.kind, n, Options{Durability: tc.mode, Observer: obs})
			defer inst.Close()
			inst.warmUp()
			if (inst.Disks != nil) != (tc.mode == Durable) {
				t.Fatalf("disks attached = %v in %s", inst.Disks != nil, name)
			}
			chk := inst.Check(nil)
			acks := 0
			abcast.Loop(sim, inst.Sys, window, func(id uint64, next func()) {
				p := make([]byte, 16)
				abcast.PutMsgID(p, id)
				chk.OnBroadcast(id)
				inst.Sys.Submit(p, func() { acks++; next() })
			})
			sim.RunFor(20 * time.Millisecond)

			g, tgt := inst.Group, inst.ChaosTarget()
			ldr := g.LeaderIdx()
			victim := ldr
			if tc.follower {
				victim = (ldr + 1) % n
			}
			prefix := 0
			for i := 0; i < n; i++ {
				prefix = max(prefix, len(chk.Delivered(i)))
			}
			// A follower may trail the leader at the kill: it is held to
			// what it had delivered itself.
			own := prefix
			if tc.follower {
				own = len(chk.Delivered(victim))
			}
			tgt.Crash(victim)
			acksAtKill := acks
			for i := 0; i < 200; i++ {
				if l := g.LeaderIdx(); l >= 0 && l != victim && g.Ready() {
					break
				}
				sim.RunFor(5 * time.Millisecond)
			}
			if l := g.LeaderIdx(); l < 0 || l == victim || tc.follower && l != ldr {
				t.Fatalf("leader %d after killing replica %d (leader %d before)\n%s", l, victim, ldr, obs.Report())
			}
			sim.RunFor(20 * time.Millisecond)
			if acks == acksAtKill {
				t.Fatalf("no commits after the kill\n%s", obs.Report())
			}

			tgt.Restart(victim)
			if inst.Disks != nil && inst.DiskRecoveredBytes() == 0 {
				t.Fatal("the durable restart read nothing back from disk")
			}
			acksAtRestart := acks
			sim.RunFor(150 * time.Millisecond)
			if acks == acksAtRestart {
				t.Fatalf("no commits after the restart\n%s", obs.Report())
			}
			if err := chk.Err(); err != nil {
				t.Fatalf("%v\n%s", err, obs.Report())
			}
			if v := obs.ViolationCount(); v != 0 || obs.Checks() == 0 {
				t.Fatalf("%d invariant violations in %d checks:\n%s", v, obs.Checks(), obs.Report())
			}
			up := g.Proc(victim).Alive()
			if isDerecho := tc.kind == DerechoAll || tc.kind == DerechoLeader; up == isDerecho {
				t.Fatalf("after Restart(%d) its process is alive = %v", victim, up)
			}
			peers := -1
			for i := 0; i < n; i++ {
				d, want := len(chk.Delivered(i)), prefix
				if i == victim {
					want = own
				}
				if d < want && g.Proc(i).Alive() {
					t.Fatalf("replica %d delivered %d, below the %d delivered before the kill", i, d, want)
				}
				if i != victim && (peers < 0 || d < peers) {
					peers = d
				}
			}
			if !up {
				return
			}
			got := len(chk.Delivered(victim))
			if caughtUp := got+window >= peers; caughtUp != tc.rejoins {
				t.Fatalf("restarted replica %d delivered %d against its peers' %d: caught up = %v, want %v (Acuerdo: ROADMAP 1(v) and item 12; a libpaxos follower: 1(vi))",
					victim, got, peers, caughtUp, tc.rejoins)
			}
		})
	}
}
