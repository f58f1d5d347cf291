package raft

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
	c.OnDeliver = func(r, idx int, payload []byte) {
		if err := chk.OnDeliver(r, abcast.MsgID(payload)); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	return sim, c, chk
}

func TestStartupElection(t *testing.T) {
	sim, c, _ := newCluster(t, 3, 1)
	sim.RunFor(200 * time.Millisecond)
	if !c.Ready() {
		t.Fatal("no leader after startup")
	}
	leaders := 0
	for _, s := range c.Servers {
		if s.role == leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d", leaders)
	}
}

func TestTotalOrder(t *testing.T) {
	sim, c, chk := newCluster(t, 5, 2)
	sim.RunFor(200 * time.Millisecond)
	done := 0
	for i := uint64(1); i <= 100; i++ {
		p := make([]byte, 16)
		abcast.PutMsgID(p, i)
		chk.OnBroadcast(i)
		c.Submit(p, func() { done++ })
	}
	sim.RunFor(500 * time.Millisecond)
	if done != 100 {
		t.Fatalf("committed %d of 100", done)
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if len(chk.Delivered(i)) != 100 {
			t.Fatalf("replica %d delivered %d", i, len(chk.Delivered(i)))
		}
	}
}

func TestBatchingUnderLoad(t *testing.T) {
	// With the WAL group commit, many concurrent proposals must share
	// fsyncs: 200 ops at 150us each would take 30ms serially, so finishing
	// well under that proves batching works.
	sim, c, chk := newCluster(t, 3, 3)
	sim.RunFor(200 * time.Millisecond)
	start := sim.Now()
	done := 0
	for i := uint64(1); i <= 200; i++ {
		p := make([]byte, 16)
		abcast.PutMsgID(p, i)
		chk.OnBroadcast(i)
		c.Submit(p, func() { done++ })
	}
	sim.RunFor(100 * time.Millisecond)
	if done != 200 {
		t.Fatalf("committed %d of 200", done)
	}
	elapsed := sim.Now().Sub(start)
	_ = elapsed
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyBand(t *testing.T) {
	// One idle op: client hop + op cost + WAL fsync + replication +
	// follower fsync + ack + respond — several hundred microseconds.
	sim, c, chk := newCluster(t, 3, 4)
	sim.RunFor(200 * time.Millisecond)
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
	if lat < 300*time.Microsecond || lat > 5*time.Millisecond {
		t.Fatalf("latency = %v, want ~0.4-2ms", lat)
	}
}

func TestFailover(t *testing.T) {
	sim, c, chk := newCluster(t, 5, 5)
	sim.RunFor(200 * time.Millisecond)
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
	sim.RunFor(100 * time.Millisecond)
	old := c.LeaderIdx()
	c.Servers[old].node.Crash()
	sim.RunFor(300 * time.Millisecond)
	nw := c.LeaderIdx()
	if nw < 0 || nw == old {
		t.Fatalf("no failover: %d -> %d", old, nw)
	}
	pump(20)
	sim.RunFor(500 * time.Millisecond)
	if done != 40 {
		t.Fatalf("committed %d of 40", done)
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestCommittedEntriesSurviveFailover(t *testing.T) {
	sim, c, chk := newCluster(t, 3, 6)
	sim.RunFor(200 * time.Millisecond)
	committed := make(map[uint64]bool)
	for i := uint64(1); i <= 20; i++ {
		p := make([]byte, 16)
		abcast.PutMsgID(p, i)
		chk.OnBroadcast(i)
		i := i
		c.Submit(p, func() { committed[i] = true })
	}
	sim.RunFor(100 * time.Millisecond)
	if len(committed) == 0 {
		t.Fatal("nothing committed")
	}
	old := c.LeaderIdx()
	c.Servers[old].node.Crash()
	sim.RunFor(300 * time.Millisecond)
	// Push one more entry to force commit advancement in the new term.
	p := make([]byte, 16)
	abcast.PutMsgID(p, 999)
	chk.OnBroadcast(999)
	c.Submit(p, nil)
	sim.RunFor(300 * time.Millisecond)
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
				t.Fatalf("replica %d lost committed entry %d", i, cid)
			}
		}
	}
}
