package acuerdo

import (
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/observe"
	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
)

// newObservedCluster is newTestCluster with the invariant observer attached
// (volatile: no disks).
func newObservedCluster(t *testing.T, n int, seed int64) (*simnet.Sim, *Cluster, *abcast.Checker, *observe.Observer) {
	t.Helper()
	sim := simnet.New(seed)
	c := NewCluster(sim, rdma.NewFabric(sim, rdma.DefaultParams()), DefaultClusterConfig(n))
	obs := observe.New(observe.Config{System: "acuerdo", Nodes: n, Seed: seed})
	c.Subscribe(obs)
	chk := abcast.NewChecker(n)
	c.OnDeliver = func(replica int, hdr MsgHdr, payload []byte) {
		if err := chk.OnDeliver(replica, abcast.MsgID(payload)); err != nil {
			t.Fatalf("%v\n%s", err, obs.Report())
		}
	}
	c.Start()
	return sim, c, chk, obs
}

// caughtUp stops the load and fails t unless every replica is then in the
// leader's epoch, not electing, and has committed all the leader has.
func caughtUp(t *testing.T, sim *simnet.Sim, c *Cluster, stop *bool) {
	t.Helper()
	*stop = true
	sim.RunFor(5 * time.Millisecond)
	ldr := c.Leader()
	if ldr == nil {
		t.Fatal("no leader at the end")
	}
	for i, r := range c.Replicas {
		if r.Epoch() != ldr.Epoch() || r.Role() == Electing {
			t.Fatalf("replica %d is %v in %v, the leader's epoch is %v", i, r.Role(), r.Epoch(), ldr.Epoch())
		}
		if r.Committed() != ldr.Committed() {
			t.Fatalf("replica %d committed through %v, the leader through %v", i, r.Committed(), ldr.Committed())
		}
	}
}

// TestDurableRejoinerWaitsToStand: a durable follower restarts under a live
// leader. Its recovery read pauses it, and its first election step comes
// before the leader has seen its new incarnation, with the vote rows it kept
// from before the crash: the largest names an epoch whose candidate had
// accepted less than the rejoiner's WAL frontier. Standing there would take
// an epoch above the leader's, and the leader's re-admission diff would be
// refused, leaving the rejoiner electing until the leader next fails. The
// no-stand window, opened at that first step, keeps it from standing; it
// accepts the diff and follows.
func TestDurableRejoinerWaitsToStand(t *testing.T) {
	sim, c, chk, obs, _ := newDurableCluster(t, 3, 5)
	sim.RunFor(20 * time.Millisecond)
	stop := false
	loadLoop(sim, c, chk, 8, 16, &stop)
	sim.RunFor(10 * time.Millisecond)
	ldr := c.LeaderIdx()
	j := (ldr + 1) % 3
	rj := c.Replicas[j]
	c.Crash(j)
	sim.RunFor(8 * time.Millisecond)
	chk.NodeRestart(j)
	c.Restart(j)
	for range 50 {
		sim.RunFor(100 * time.Microsecond)
		if v := rj.voteSST.Get(j); v.ENew.Ldr == rj.ID && !v.IsZero() {
			t.Fatalf("rejoiner %d stood for election at %v with %v while leader %d was up", j, sim.Now(), v, ldr)
		}
	}
	if l := c.LeaderIdx(); l != ldr || rj.Role() != Follower || rj.Epoch() != c.Replicas[ldr].Epoch() {
		t.Fatalf("leader %d (was %d); rejoiner %d is %v in %v", l, ldr, j, rj.Role(), rj.Epoch())
	}
	caughtUp(t, sim, c, &stop)
	if v := obs.ViolationCount(); v != 0 {
		t.Fatalf("%d invariant violations:\n%s", v, obs.Report())
	}
}

// TestVolatileRejoinerResumes: a volatile replica keeps its memory across a
// restart, log, committed header and vote row included.
//
// A follower still in the leader's epoch takes the mid-epoch re-admission
// diff and resumes committing after its own committed header: a rejoiner
// that took the diff for an epoch's first and committed from (E, 0) would
// move its committed header back (commit-monotone) and deliver the epoch's
// messages again (the checker's no-duplication).
//
// A leader that crashed while the others elected past it still holds, in its
// own vote row and in the rows its peers pushed before the crash, the quorum
// that won its old term. Inside its no-stand window it must not win that
// term again (leader-uniqueness): it forfeits its own vote at the restart.
func TestVolatileRejoinerResumes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		leader bool
	}{
		{"follower", false},
		{"old leader", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, c, chk, obs := newObservedCluster(t, 3, 3)
			sim.RunFor(20 * time.Millisecond)
			stop := false
			loadLoop(sim, c, chk, 8, 16, &stop)
			sim.RunFor(10 * time.Millisecond)
			ldr := c.LeaderIdx()
			j := (ldr + 1) % 3
			if tc.leader {
				j = ldr
			}
			c.Crash(j)
			sim.RunFor(10 * time.Millisecond)
			if l := c.LeaderIdx(); l < 0 || l == j {
				t.Fatalf("leader %d after crashing %d", l, j)
			}
			c.Restart(j)
			sim.RunFor(10 * time.Millisecond)
			if r := c.Replicas[j]; r.Role() != Follower {
				t.Fatalf("rejoiner %d is %v in %v", j, r.Role(), r.Epoch())
			}
			caughtUp(t, sim, c, &stop)
			if err := chk.CheckTotalOrder(); err != nil {
				t.Fatal(err)
			}
			if v := obs.ViolationCount(); v != 0 || obs.Checks() == 0 {
				t.Fatalf("%d invariant violations in %d checks:\n%s", v, obs.Checks(), obs.Report())
			}
		})
	}
}

// TestMutualSuspicionHeals: two followers cut off from each other each mark
// the other down. After the heal each sees the other's heartbeat move again
// and marks it live: a mark that stayed down would outlive the partition.
// The marks matter once the leader fails: the winner writes its diff only to
// peers it holds live, and with the old leader dead it needs the other
// follower's acceptance to commit anything. (Heartbeats go to down peers
// too. Here the reliable connection parks the writes a cut holds back and
// delivers them at the heal, so the heartbeats each pushed before marking
// the other down would carry the news even if it had stopped pushing.)
func TestMutualSuspicionHeals(t *testing.T) {
	sim, c, chk, obs := newObservedCluster(t, 3, 11)
	sim.RunFor(20 * time.Millisecond)
	stop := false
	loadLoop(sim, c, chk, 8, 16, &stop)
	sim.RunFor(5 * time.Millisecond)
	ldr := c.LeaderIdx()
	b, d := c.Replicas[(ldr+1)%3], c.Replicas[(ldr+2)%3]
	c.Fabric.Partition(b.Node.ID, d.Node.ID)
	sim.RunFor(10 * time.Millisecond)
	if b.peers[d.ID].live || d.peers[b.ID].live {
		t.Fatalf("after 10 ms apart: %d holds %d live = %v, %d holds %d live = %v",
			b.ID, d.ID, b.peers[d.ID].live, d.ID, b.ID, d.peers[b.ID].live)
	}
	c.Fabric.Heal(b.Node.ID, d.Node.ID)
	sim.RunFor(time.Millisecond)
	if !b.peers[d.ID].live || !d.peers[b.ID].live {
		t.Fatalf("1 ms after the heal: %d holds %d live = %v, %d holds %d live = %v",
			b.ID, d.ID, b.peers[d.ID].live, d.ID, b.ID, d.peers[b.ID].live)
	}

	c.Crash(ldr)
	delivered := b.Stats.Delivered
	sim.RunFor(20 * time.Millisecond)
	if l := c.LeaderIdx(); l < 0 || l == ldr {
		t.Fatalf("leader %d after crashing %d", l, ldr)
	}
	if b.Stats.Delivered == delivered {
		t.Fatalf("replica %d delivered nothing after the leader's crash", b.ID)
	}
	stop = true
	sim.RunFor(5 * time.Millisecond)
	if b.Stats.Delivered != d.Stats.Delivered {
		t.Fatalf("survivors delivered %d and %d", b.Stats.Delivered, d.Stats.Delivered)
	}
	if v := obs.ViolationCount(); v != 0 {
		t.Fatalf("%d invariant violations:\n%s", v, obs.Report())
	}
}

// TestQuickLeaderRestartIsSuspected: a leader power-cut and restarted inside
// leaderTimeout comes back electing, its heartbeat moving again, so a
// failure detector that watched only for a stale row would follow it for
// good and the group would never commit again. Its followers see its
// incarnation rise and suspect it at once.
func TestQuickLeaderRestartIsSuspected(t *testing.T) {
	sim, c, chk, obs := newObservedCluster(t, 3, 3)
	sim.RunFor(20 * time.Millisecond)
	stop := false
	loadLoop(sim, c, chk, 8, 16, &stop)
	sim.RunFor(5 * time.Millisecond)
	ldr := c.LeaderIdx()
	f := c.Replicas[(ldr+1)%3]
	c.Crash(ldr)
	sim.RunFor(2 * time.Millisecond)
	c.Restart(ldr)
	delivered := f.Stats.Delivered
	sim.RunFor(10 * time.Millisecond)
	if c.LeaderIdx() < 0 || f.Stats.Delivered == delivered {
		t.Fatalf("leader %d, replica %d delivered %d → %d after leader %d restarted 2 ms after its crash",
			c.LeaderIdx(), f.ID, delivered, f.Stats.Delivered, ldr)
	}
	caughtUp(t, sim, c, &stop)
	if v := obs.ViolationCount(); v != 0 {
		t.Fatalf("%d invariant violations:\n%s", v, obs.Report())
	}
}
