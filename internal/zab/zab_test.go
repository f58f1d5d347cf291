package zab

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

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
	c.OnDeliver = func(r int, zxid uint64, payload []byte) {
		if err := chk.OnDeliver(r, abcast.MsgID(payload)); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	return sim, c, chk
}

func TestStartupElection(t *testing.T) {
	sim, c, _ := newCluster(t, 3, 1)
	sim.RunFor(100 * time.Millisecond)
	if !c.Ready() {
		t.Fatal("no active leader after startup")
	}
}

func TestTotalOrderBroadcast(t *testing.T) {
	sim, c, chk := newCluster(t, 3, 2)
	sim.RunFor(100 * time.Millisecond)
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
			t.Fatalf("replica %d delivered %d", i, len(chk.Delivered(i)))
		}
	}
}

func TestCommitLatencyIsHundredsOfMicroseconds(t *testing.T) {
	// The TCP kernel path plus per-message acks plus group commit should
	// put ZooKeeper an order of magnitude above Acuerdo's ~10us.
	sim, c, chk := newCluster(t, 3, 3)
	sim.RunFor(100 * time.Millisecond)
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
	if lat < 100*time.Microsecond || lat > 2*time.Millisecond {
		t.Fatalf("latency = %v, want ~100us-1ms", lat)
	}
}

func TestFailover(t *testing.T) {
	sim, c, chk := newCluster(t, 5, 4)
	sim.RunFor(100 * time.Millisecond)
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
	old := c.LeaderIdx()
	c.Servers[old].node.Crash()
	sim.RunFor(200 * time.Millisecond)
	if c.LeaderIdx() < 0 || c.LeaderIdx() == old {
		t.Fatalf("no failover: leader = %d (old %d)", c.LeaderIdx(), old)
	}
	pump(20)
	sim.RunFor(300 * time.Millisecond)
	if done != 40 {
		t.Fatalf("committed %d of 40 across failover", done)
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestVoteOrderingPrefersLongerLog(t *testing.T) {
	a := voteT{epoch: 1, zxid: 10, id: 0}
	b := voteT{epoch: 1, zxid: 20, id: 1}
	if !b.better(a) || a.better(b) {
		t.Fatal("zxid ordering broken")
	}
	c := voteT{epoch: 2, zxid: 0, id: 0}
	if !c.better(b) {
		t.Fatal("epoch must dominate")
	}
}

// TestSessionsBoundedState is the horizon × 10 test for the client-request
// table: under a closed loop of window 64, after T and after 10·T every
// server's table covers the same few blocks of ids, however many requests
// went through. (The two maps it replaced held an entry per request of the
// run.)
func TestSessionsBoundedState(t *testing.T) {
	const (
		window = 64
		T      = 20 * time.Millisecond
	)
	run := func(d time.Duration) (delivered, span int) {
		sim, c, chk := newCluster(t, 3, 5)
		sim.RunFor(100 * time.Millisecond)
		abcast.Loop(sim, c, window, func(id uint64, next func()) {
			p := make([]byte, 16)
			abcast.PutMsgID(p, id)
			chk.OnBroadcast(id)
			c.Submit(p, next)
		})
		sim.RunFor(d)
		for i, s := range c.Servers {
			t.Logf("after %v: server %d delivered %d, its request table covers %d ids", d, i, len(chk.Delivered(i)), s.sessions.Span())
			span = max(span, s.sessions.Span())
		}
		return chk.MinDelivered(), span
	}
	short, shortSpan := run(T)
	long, longSpan := run(10 * T)
	if short < 4*window || long < 8*short {
		t.Fatalf("delivered %d in %v and %d in %v: not the load this test is about", short, T, long, 10*T)
	}
	// A window of ids straddles at most two 64-id blocks beyond the
	// watermark's, and the rings are a power of two of blocks.
	if shortSpan != longSpan || longSpan > 4*64 {
		t.Fatalf("request tables cover %d ids after %v, %d after %v: want the same, and <= %d", shortSpan, T, longSpan, 10*T, 4*64)
	}
}

// TestZabCommitPathAllocFree pins a request's path from client submit through
// PROPOSE, the group-committed ACKs and COMMIT to the client's ack at no
// allocation in steady state: messages are framed in the cluster's scratch
// buffer, the group commit's callers are a FIFO of waiters released by one
// bound method, a request waiting for the leader's CPU is a free-listed
// record, and the closed loop recycles its window. What is left is amortised
// growth — a 32 KiB arena chunk and a log chunk now and then at each server,
// the event queue growing a bucket — bounded here at a tenth of an object per
// commit.
func TestZabCommitPathAllocFree(t *testing.T) {
	sim, c, _ := newCluster(t, 3, 1)
	c.OnDeliver = nil
	sim.RunFor(100 * time.Millisecond)
	const from, to = 20000, 30000
	var ms runtime.MemStats
	var before, after uint64
	abcast.RunClosedLoop(sim, c, abcast.LoadConfig{
		Window: 64, MsgSize: 16, Warmup: 2 * time.Second, Measure: time.Microsecond,
		OnSubmit: func(id uint64) {
			switch id {
			case from:
				runtime.ReadMemStats(&ms)
				before = ms.Mallocs
			case to:
				runtime.ReadMemStats(&ms)
				after = ms.Mallocs
			}
		},
	})
	if after == 0 {
		t.Fatalf("the warm-up did not reach request %d", to)
	}
	const commits = to - from
	if per := float64(after-before) / commits; per > 0.1 {
		t.Fatalf("%d objects over %d commits = %.3f per commit, want <= 0.1", after-before, commits, per)
	} else {
		t.Logf("%d objects over %d commits (%.4f per commit)", after-before, commits, per)
	}
}

// TestZabLogGrowsInPlace pins that the log is written once: over a steady
// window-64 run, the bytes allocated per commit are at most twice what the
// three servers' logs retain per commit, an entry and its payload's arena
// bytes each. A log grown by append copies itself at every regrowth, which
// costs about five times what it keeps.
func TestZabLogGrowsInPlace(t *testing.T) {
	const (
		size     = 16
		from, to = 16000, 56000
	)
	sim, c, _ := newCluster(t, 3, 1)
	c.OnDeliver = nil
	sim.RunFor(100 * time.Millisecond)
	var ms runtime.MemStats
	var before, after uint64
	abcast.RunClosedLoop(sim, c, abcast.LoadConfig{
		Window: 64, MsgSize: size, Warmup: 2 * time.Second, Measure: time.Microsecond,
		OnSubmit: func(id uint64) {
			switch id {
			case from:
				runtime.ReadMemStats(&ms)
				before = ms.TotalAlloc
			case to:
				runtime.ReadMemStats(&ms)
				after = ms.TotalAlloc
			}
		},
	})
	if after == 0 {
		t.Fatalf("the warm-up did not reach request %d", to)
	}
	kept := 3 * (float64(unsafe.Sizeof(entry{})) + size)
	per := float64(after-before) / (to - from)
	if per > 2*kept {
		t.Fatalf("allocated %.1f B per commit, the logs keep %.0f: want <= %.0f", per, kept, 2*kept)
	}
	t.Logf("allocated %.1f B per commit, the logs keep %.0f", per, kept)
}
