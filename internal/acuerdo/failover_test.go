package acuerdo

import (
	"slices"
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/observe"
	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
)

// newObservedCluster is newTestCluster with the runtime invariant observer
// attached, so failover assertions can cite its witness reports.
func newObservedCluster(t *testing.T, n int, seed int64) (*simnet.Sim, *Cluster, *abcast.Checker, *observe.Observer) {
	t.Helper()
	sim := simnet.New(seed)
	fabric := rdma.NewFabric(sim, rdma.DefaultParams())
	c := NewCluster(sim, fabric, DefaultClusterConfig(n))
	obs := observe.New(observe.Config{System: "acuerdo", Nodes: n, Seed: seed})
	c.Subscribe(obs)
	chk := abcast.NewChecker(n)
	c.OnDeliver = func(replica int, hdr MsgHdr, payload []byte) {
		if err := chk.OnDeliver(replica, abcast.MsgID(payload)); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	return sim, c, chk, obs
}

// TestLeaderFailoverPreservesCommittedPrefix drives closed-loop load, kills
// the leader mid-stream, waits for the ring successor to take over, restarts
// the old leader, and checks the whole history: everything delivered
// anywhere before the kill survives at every replica (the restarted one
// catches up from the commit SST), the total order stays intact, and the
// client keeps committing after the failover. The invariant observer runs
// throughout; any failure cites its witness reports.
func TestLeaderFailoverPreservesCommittedPrefix(t *testing.T) {
	sim, c, chk, obs := newObservedCluster(t, 3, 9)
	sim.RunFor(20 * time.Millisecond)

	acks := 0
	abcast.Loop(sim, c, 4, func(id uint64, next func()) {
		p := make([]byte, 16)
		abcast.PutMsgID(p, id)
		chk.OnBroadcast(id)
		c.Submit(p, func() {
			acks++
			next()
		})
	})
	sim.RunFor(20 * time.Millisecond)

	old := c.LeaderIdx()
	if old < 0 {
		t.Fatal("no leader before the kill")
	}
	// Snapshot the longest committed prefix at kill time.
	var snap []uint64
	for i := 0; i < 3; i++ {
		if d := chk.Delivered(i); len(d) > len(snap) {
			snap = append([]uint64(nil), d...)
		}
	}
	acksAtKill := acks
	c.Replicas[old].Crash()

	// Survivors must elect and resume.
	deadline := sim.Now().Add(500 * time.Millisecond)
	for sim.Now() < deadline {
		sim.RunFor(2 * time.Millisecond)
		if l := c.LeaderIdx(); l >= 0 && l != old && c.Ready() {
			break
		}
	}
	if l := c.LeaderIdx(); l < 0 || l == old {
		t.Fatalf("no new leader after the kill (leader=%d, old=%d)\n%s", l, old, obs.Report())
	}
	sim.RunFor(30 * time.Millisecond)
	if acks == acksAtKill {
		t.Fatalf("no commits after the failover\n%s", obs.Report())
	}

	// The old leader rejoins and must catch up on everything it missed.
	c.Replicas[old].Restart()
	sim.RunFor(100 * time.Millisecond)

	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatalf("%v\n%s", err, obs.Report())
	}
	for i := 0; i < 3; i++ {
		d := chk.Delivered(i)
		if len(d) < len(snap) {
			t.Fatalf("replica %d delivered %d < committed prefix %d at kill time\n%s",
				i, len(d), len(snap), obs.Report())
		}
		for j, id := range snap {
			if d[j] != id {
				t.Fatalf("replica %d position %d: got %d, want %d (committed prefix lost)\n%s",
					i, j, d[j], id, obs.Report())
			}
		}
	}
	if n := obs.ViolationCount(); n != 0 {
		t.Fatalf("%d invariant violations during failover:\n%s", n, obs.Report())
	}
	if obs.Checks() == 0 {
		t.Fatal("observer performed no checks; the hooks are not wired")
	}
}

// TestRetryAcrossFailoverIsReacked: a client request that reaches a new
// leader again is re-acknowledged or dropped, never proposed a second time.
// The old leader crashes the moment both followers have accepted a request
// whose commit none of them has seen, so it sits in the new leader's diff
// tail; when the new leader wins, its request ring receives that request
// again and one every replica delivered before the crash. Each is delivered
// exactly once at every replica, and the client's done for each runs once.
func TestRetryAcrossFailoverIsReacked(t *testing.T) {
	sim, c, chk := newTestCluster(t, 3, 15)
	sim.RunFor(20 * time.Millisecond)
	old := c.LeaderIdx()
	payload := make(map[uint64][]byte)
	done := make(map[uint64]int)
	submit := func(id uint64) {
		p := make([]byte, 16)
		abcast.PutMsgID(p, id)
		payload[id] = p
		chk.OnBroadcast(id)
		c.Submit(p, func() { done[id]++ })
	}
	const delivered, inTail = 1, 2

	submit(delivered)
	sim.RunFor(time.Millisecond)
	for i := range c.Replicas {
		if len(chk.Delivered(i)) != 1 {
			t.Fatalf("replica %d delivered %v before the crash, want [%d]", i, chk.Delivered(i), delivered)
		}
	}
	submit(inTail)
	ldr := c.Replicas[old]
	for step := 0; ; step++ {
		if step > 1000 {
			t.Fatal("the followers never accepted the second request")
		}
		sim.RunFor(100 * time.Nanosecond)
		n := 0
		for i, r := range c.Replicas {
			if i != old && ldr.Stats.Broadcasts == 2 && r.Accepted() == ldr.Accepted() {
				n++
			}
		}
		if n == 2 {
			break
		}
	}
	ldr.Crash()
	for i := range c.Replicas {
		if i != old && len(chk.Delivered(i)) != 1 {
			t.Fatalf("follower %d delivered %v at the crash: request %d is not in a diff tail", i, chk.Delivered(i), inTail)
		}
	}

	won := -1
	for i, r := range c.Replicas {
		if i == old {
			continue
		}
		r.OnElected = func(Epoch) {
			won = i
			if len(chk.Delivered(i)) != 1 {
				t.Fatalf("new leader %d delivered %v before its diff committed", i, chk.Delivered(i))
			}
			c.link.Request(i, payload[delivered])
			c.link.Request(i, payload[inTail])
		}
	}
	sim.RunFor(50 * time.Millisecond)
	if won < 0 {
		t.Fatal("no new leader")
	}
	for i := range c.Replicas {
		if i == old {
			continue
		}
		if got := chk.Delivered(i); !slices.Equal(got, []uint64{delivered, inTail}) {
			t.Fatalf("replica %d delivered %v, want [%d %d] once each", i, got, delivered, inTail)
		}
	}
	if done[delivered] != 1 || done[inTail] != 1 {
		t.Fatalf("client done ran %d and %d times, want once each", done[delivered], done[inTail])
	}
}
