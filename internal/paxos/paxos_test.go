package paxos

import (
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/simnet"
	"acuerdo/internal/tcpnet"
)

func newCluster(t *testing.T, n int, seed int64) (*simnet.Sim, *Cluster, *abcast.Checker) {
	t.Helper()
	sim := simnet.New(seed)
	net := tcpnet.New(sim, tcpnet.DefaultParams())
	c := NewCluster(sim, net, n)
	chk := abcast.NewChecker(n)
	c.OnDeliver = func(r int, inst uint64, payload []byte) {
		if err := chk.OnDeliver(r, abcast.MsgID(payload)); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	return sim, c, chk
}

func TestTotalOrder(t *testing.T) {
	sim, c, chk := newCluster(t, 3, 1)
	done := 0
	for i := uint64(1); i <= 100; i++ {
		p := make([]byte, 16)
		abcast.PutMsgID(p, i)
		chk.OnBroadcast(i)
		c.Submit(p, func() { done++ })
	}
	sim.RunFor(200 * time.Millisecond)
	if done != 100 {
		t.Fatalf("committed %d of 100", done)
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if len(chk.Delivered(i)) != 100 {
			t.Fatalf("learner %d delivered %d", i, len(chk.Delivered(i)))
		}
	}
}

func TestWindowPipelining(t *testing.T) {
	// More requests than the window: the proposer must recycle instances.
	sim, c, chk := newCluster(t, 3, 2)
	done := 0
	for i := uint64(1); i <= 500; i++ {
		p := make([]byte, 16)
		abcast.PutMsgID(p, i)
		chk.OnBroadcast(i)
		c.Submit(p, func() { done++ })
	}
	sim.RunFor(500 * time.Millisecond)
	if done != 500 {
		t.Fatalf("committed %d of 500", done)
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyBand(t *testing.T) {
	// Client->proposer->acceptors->learners->client over TCP: ~100us.
	sim, c, chk := newCluster(t, 3, 3)
	var lat time.Duration
	p := make([]byte, 16)
	abcast.PutMsgID(p, 1)
	chk.OnBroadcast(1)
	start := sim.Now()
	c.Submit(p, func() { lat = sim.Now().Sub(start) })
	sim.RunFor(50 * time.Millisecond)
	if lat == 0 {
		t.Fatal("never committed")
	}
	if lat < 50*time.Microsecond || lat > time.Millisecond {
		t.Fatalf("latency = %v, want ~100us", lat)
	}
}

func TestProposerFailover(t *testing.T) {
	sim, c, chk := newCluster(t, 3, 4)
	done := 0
	var id uint64
	pump := func(k int) {
		for i := 0; i < k; i++ {
			id++
			p := make([]byte, 16)
			abcast.PutMsgID(p, id)
			chk.OnBroadcast(id)
			c.Submit(p, func() { done++ })
		}
	}
	pump(20)
	sim.RunFor(50 * time.Millisecond)
	c.Servers[0].node.Crash()
	sim.RunFor(100 * time.Millisecond)
	if got := c.LeaderIdx(); got != 1 {
		t.Fatalf("proposer after failover = %d, want 1", got)
	}
	pump(20)
	sim.RunFor(200 * time.Millisecond)
	if done != 40 {
		t.Fatalf("committed %d of 40 across failover", done)
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestChosenValuesSurviveFailover(t *testing.T) {
	// Phase 1 must re-propose values accepted under the old ballot.
	sim, c, chk := newCluster(t, 3, 5)
	committed := map[uint64]bool{}
	for i := uint64(1); i <= 30; i++ {
		p := make([]byte, 16)
		abcast.PutMsgID(p, i)
		chk.OnBroadcast(i)
		i := i
		c.Submit(p, func() { committed[i] = true })
	}
	sim.RunFor(30 * time.Millisecond)
	before := len(committed)
	if before == 0 {
		t.Fatal("nothing committed before crash")
	}
	c.Servers[0].node.Crash()
	sim.RunFor(200 * time.Millisecond)
	for i, s := range c.Servers {
		if s.node.Crashed() {
			continue
		}
		seen := map[uint64]bool{}
		for _, d := range chk.Delivered(i) {
			seen[d] = true
		}
		for cid := range committed {
			if !seen[cid] {
				t.Fatalf("learner %d lost chosen value %d", i, cid)
			}
		}
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartedLearnerAsksAtOnce: a follower down for longer than a failover
// tick, restarted under load, is level with its peers within a few
// milliseconds, in both storage modes, because Restart asks its peers for the
// gap at once. The follower's tick would ask too, but only a tick later: this
// test alone kills the restart corpus's RL2 and RL3 (DESIGN §6.8), each a
// Restart that leaves the asking to the tick.
func TestRestartedLearnerAsksAtOnce(t *testing.T) {
	const window = 4
	for _, durable := range []bool{false, true} {
		var (
			sim *simnet.Sim
			c   *Cluster
			chk *abcast.Checker
		)
		if durable {
			sim, c, chk, _, _ = newDurableCluster(t, 3, 5)
		} else {
			sim, c, chk = newCluster(t, 3, 5)
		}
		sim.RunFor(50 * time.Millisecond)
		driveLoad(sim, c, chk, window)
		sim.RunFor(20 * time.Millisecond)
		victim := (c.LeaderIdx() + 1) % 3
		c.Crash(victim)
		chk.NodeRestart(victim)
		sim.RunFor(2 * leaderTimeout)
		ldr := c.LeaderIdx()
		down, peers := len(chk.Delivered(victim)), len(chk.Delivered(ldr))
		c.Restart(victim)
		sim.RunFor(3 * time.Millisecond)
		got := len(chk.Delivered(victim))
		t.Logf("durable %v: restarted learner %d delivered %d at its restart and %d 3 ms later; its leader %d had %d at the restart and has %d", durable, victim, down, got, ldr, peers, len(chk.Delivered(ldr)))
		if got < peers {
			t.Errorf("durable %v: restarted learner %d delivered %d within 3 ms of its restart, below the %d its leader had at the restart", durable, victim, got, peers)
		}
	}
}
