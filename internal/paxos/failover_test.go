package paxos

import (
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/observe"
	"acuerdo/internal/simnet"
	"acuerdo/internal/tcpnet"
)

// newObservedCluster is newCluster with the runtime invariant observer
// attached, so failover assertions can cite its witness reports.
func newObservedCluster(t *testing.T, n int, seed int64) (*simnet.Sim, *Cluster, *abcast.Checker, *observe.Observer) {
	t.Helper()
	sim := simnet.New(seed)
	net := tcpnet.New(sim, tcpnet.DefaultParams())
	c := NewCluster(sim, net, n)
	obs := observe.New(observe.Config{System: "libpaxos", Nodes: n, Seed: seed})
	c.Subscribe(obs)
	chk := abcast.NewChecker(n)
	c.OnDeliver = func(r int, inst uint64, payload []byte) {
		if err := chk.OnDeliver(r, abcast.MsgID(payload)); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	return sim, c, chk, obs
}

// TestProposerFailoverPreservesCommittedPrefix drives closed-loop load,
// kills the active proposer mid-stream, waits for failover to a new
// proposer, restarts the old one, and checks the whole history: everything
// delivered anywhere before the kill survives at every replica (the
// restarted learner closes its gap via LearnReq), the total order stays
// intact, and the client keeps committing. The invariant observer runs
// throughout; any failure cites its witness reports.
func TestProposerFailoverPreservesCommittedPrefix(t *testing.T) {
	sim, c, chk, obs := newObservedCluster(t, 3, 9)
	sim.RunFor(100 * time.Millisecond)

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
		t.Fatal("no proposer before the kill")
	}
	// Snapshot the longest committed prefix at kill time.
	var snap []uint64
	for i := 0; i < 3; i++ {
		if d := chk.Delivered(i); len(d) > len(snap) {
			snap = append([]uint64(nil), d...)
		}
	}
	acksAtKill := acks
	c.Crash(old)

	// Survivors must fail over and resume.
	deadline := sim.Now().Add(500 * time.Millisecond)
	for sim.Now() < deadline {
		sim.RunFor(2 * time.Millisecond)
		if l := c.LeaderIdx(); l >= 0 && l != old && c.Ready() {
			break
		}
	}
	if l := c.LeaderIdx(); l < 0 || l == old {
		t.Fatalf("no new proposer after the kill (proposer=%d, old=%d)\n%s", l, old, obs.Report())
	}
	sim.RunFor(30 * time.Millisecond)
	if acks == acksAtKill {
		t.Fatalf("no commits after the failover\n%s", obs.Report())
	}

	// The old proposer rejoins as a learner and must close its gap.
	c.Restart(old)
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
