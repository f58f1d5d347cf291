package zab

import (
	"bytes"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"acuerdo/internal/abcast"
	"acuerdo/internal/chunks"
	"acuerdo/internal/disk"
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
// record, the closed loop recycles its window, and each server's log, trimmed
// below the ensemble's commit frontier, refills the list chunk and the arena
// chunks its trimmed entries emptied. What is left is the client's map of
// pending requests rehashing now and then: 2 objects, 9.5 KB in 10 000
// commits on Go 1.24, bounded here at 10 objects and 4 B per commit (the
// grow-only log allocated 148 B per commit).
func TestZabCommitPathAllocFree(t *testing.T) {
	sim, c, _ := newCluster(t, 3, 1)
	c.OnDeliver = nil
	sim.RunFor(100 * time.Millisecond)
	const from, to = 20000, 30000
	var before, after runtime.MemStats
	// The span opens and closes inside the load's callbacks: measure it as
	// testing.AllocsPerRun does, on one P, and after a collection.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	abcast.RunClosedLoop(sim, c, abcast.LoadConfig{
		Window: 64, MsgSize: 16, Warmup: 2 * time.Second, Measure: time.Microsecond,
		OnSubmit: func(id uint64) {
			switch id {
			case from:
				runtime.GC()
				runtime.ReadMemStats(&before)
			case to:
				runtime.ReadMemStats(&after)
			}
		},
	})
	if after.Mallocs == 0 {
		t.Fatalf("the warm-up did not reach request %d", to)
	}
	const commits = to - from
	objs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d objects, %d B over %d commits (%.4f objects, %.2f B per commit)", objs, bytes, commits, float64(objs)/commits, float64(bytes)/commits)
	if per := float64(objs) / commits; per > 0.001 {
		t.Fatalf("%d objects over %d commits = %.4f per commit, want <= 0.001", objs, commits, per)
	}
	if per := float64(bytes) / commits; per > 4 {
		t.Fatalf("%d B over %d commits = %.2f per commit, want <= 4", bytes, commits, per)
	}
}

// TestZabLogGrowsInPlace pins that a log that is never trimmed — a server's
// with a transaction log — is written once: over a steady window-64 run, the
// bytes allocated per commit are at most twice what the three servers retain
// per commit, a log entry, its payload's arena bytes and its WAL bytes each.
// A log grown by append copies itself at every regrowth, which costs about
// five times what it keeps.
func TestZabLogGrowsInPlace(t *testing.T) {
	const (
		size     = 16
		from, to = 16000, 56000
	)
	sim := simnet.New(1)
	c := NewCluster(sim, tcpnet.New(sim, tcpnet.DefaultParams()), 3)
	devs := make([]*disk.Device, 3)
	for i := range devs {
		devs[i] = disk.NewDevice(sim, i, disk.DefaultParams())
	}
	c.SetDisks(devs)
	c.Start()
	sim.RunFor(100 * time.Millisecond)
	wal := func() (n int64) {
		for _, d := range devs {
			n += d.Stats().WriteBytes
		}
		return n
	}
	var ms runtime.MemStats
	var before, after uint64
	var walBytes int64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as in TestZabCommitPathAllocFree
	abcast.RunClosedLoop(sim, c, abcast.LoadConfig{
		Window: 64, MsgSize: size, Warmup: 2 * time.Second, Measure: time.Microsecond,
		OnSubmit: func(id uint64) {
			switch id {
			case from:
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before, walBytes = ms.TotalAlloc, wal()
			case to:
				runtime.ReadMemStats(&ms)
				after, walBytes = ms.TotalAlloc, wal()-walBytes
			}
		},
	})
	if after == 0 {
		t.Fatalf("the warm-up did not reach request %d", to)
	}
	for i, s := range c.Servers {
		if s.log.Head() != 0 {
			t.Fatalf("server %d trimmed its log below %d", i, s.log.Head())
		}
	}
	kept := 3*(float64(unsafe.Sizeof(entry{}))+size) + float64(walBytes)/(to-from)
	per := float64(after-before) / (to - from)
	if per > 2*kept {
		t.Fatalf("allocated %.1f B per commit, the servers keep %.0f: want <= %.0f", per, kept, 2*kept)
	}
	t.Logf("allocated %.1f B per commit, the servers keep %.0f", per, kept)
}

// liveChunks returns how many list chunks s's live log entries span and the
// highest arena chunk id any of them claims. The arena refills its lowest
// free id first, so a highest id that stays put while the run grows means
// no chunk was added.
func liveChunks(s *Server) (list int, arena uint32) {
	for c := range s.log.Chunks(s.log.Head(), s.log.Len()) {
		list++
		for _, e := range c {
			arena = max(arena, e.chunk)
		}
	}
	return list, arena
}

// TestZabLogBoundedState is the horizon × 10 test for a volatile server's
// log: under a closed loop of window 64, after T and after 10·T every server
// holds the same few entries above its head, in at most two list chunks and
// two arena chunks, however many requests went through. Each server trims
// below the ensemble's commit frontier as it commits; without the trim the
// long run's log spans every geometric list chunk and its payloads dozens of
// arena chunks. Every 10 µs it also checks that each server still holds
// its entry committed-1, which a late joiner's COMMIT and a new follower's
// truncation read: a trim below the frontier itself, not one below it,
// drops it right after the slowest server commits.
func TestZabLogBoundedState(t *testing.T) {
	const (
		window, size = 64, 256
		T            = 20 * time.Millisecond
	)
	run := func(d time.Duration) (delivered int, maxLive int) {
		sim, c, chk := newCluster(t, 3, 5)
		sim.RunFor(100 * time.Millisecond)
		abcast.Loop(sim, c, window, func(id uint64, next func()) {
			p := make([]byte, size)
			abcast.PutMsgID(p, id)
			chk.OnBroadcast(id)
			c.Submit(p, next)
		})
		for end := sim.Now().Add(d); sim.Now() < end; {
			sim.RunFor(10 * time.Microsecond)
			for i, s := range c.Servers {
				if s.committed > 0 && s.log.Head() > s.committed-1 {
					t.Fatalf("at %v: server %d trimmed below %d, past its entry committed-1 = %d", sim.Now(), i, s.log.Head(), s.committed-1)
				}
			}
		}
		for i, s := range c.Servers {
			live := s.log.Len() - s.log.Head()
			list, arena := liveChunks(s)
			t.Logf("after %v: server %d delivered %d and holds %d entries, [%d:%d], in %d list chunks and arena chunks up to %d",
				d, i, s.committed, live, s.log.Head(), s.log.Len(), list, arena)
			if list > 2 || arena > 2 {
				t.Errorf("after %v: server %d's live entries span %d list chunks and arena chunks up to %d, want <= 2 each", d, i, list, arena)
			}
			maxLive = max(maxLive, live)
		}
		if err := chk.Err(); err != nil {
			t.Fatal(err)
		}
		return chk.MinDelivered(), maxLive
	}
	short, shortLive := run(T)
	long, longLive := run(10 * T)
	if short < 4*window || long < 8*short || long*size < 4*chunks.ArenaChunkSize {
		t.Fatalf("delivered %d in %v and %d in %v: not the load this test is about", short, T, long, 10*T)
	}
	// The window, the proposals in flight behind it, the one committed entry
	// a COMMIT or a follower's tail reads, and what the frontier moved since
	// the last trim.
	if bound := 2*window + trimEvery; shortLive > bound || longLive > bound {
		t.Fatalf("servers hold up to %d entries after %v and %d after %v: want <= %d", shortLive, T, longLive, 10*T, bound)
	}
}

// TestZabFrontierPinnedByDownServer: a down volatile server keeps its memory,
// so its committed count pins the frontier — every survivor's log keeps the
// whole outage, because the DIFF the down server gets when it rejoins is cut
// from exactly there. After Restart it syncs by that DIFF (total order, and
// every delivered byte is what was submitted), and the frontier moves again:
// the logs shrink back to the window.
func TestZabFrontierPinnedByDownServer(t *testing.T) {
	const window, size = 16, 200
	sim, c, chk := newCluster(t, 3, 8)
	fill := func(p []byte, id uint64) {
		abcast.PutMsgID(p, id)
		for i := 8; i < len(p); i++ {
			p[i] = byte(id) + byte(id>>8) + byte(i*7)
		}
	}
	want := make([]byte, size)
	c.OnDeliver = func(r int, zxid uint64, p []byte) {
		if err := chk.OnDeliver(r, abcast.MsgID(p)); err != nil {
			t.Fatal(err)
		}
		if fill(want, abcast.MsgID(p)); !bytes.Equal(p, want) {
			t.Fatalf("server %d delivered zxid %x with bytes that are not request %d's", r, zxid, abcast.MsgID(p))
		}
	}
	sim.RunFor(100 * time.Millisecond)
	acks := 0
	reqs := abcast.Requests{Size: size, OnAck: func(*abcast.Request) { acks++ }}
	abcast.Loop(sim, c, window, func(id uint64, next func()) {
		r := reqs.Take(id, sim.Now(), next)
		fill(r.Payload, id)
		chk.OnBroadcast(id)
		c.Submit(r.Payload, r.Done)
	})
	sim.RunFor(20 * time.Millisecond)
	ldr := c.LeaderIdx()
	down := (ldr + 1) % 3
	bounded := func(when string) {
		t.Helper()
		for i, s := range c.Servers {
			if n := s.log.Len() - s.log.Head(); n > 4*window+trimEvery {
				t.Fatalf("%s: server %d holds %d entries, [%d:%d]", when, i, n, s.log.Head(), s.log.Len())
			}
		}
	}
	bounded("before the outage")

	c.Crash(down)
	stopped := c.Servers[down].committed
	sim.RunFor(50 * time.Millisecond)
	missed := c.Servers[ldr].committed - stopped
	if missed < 50*window {
		t.Fatalf("only %d commits during the outage", missed)
	}
	for i, s := range c.Servers {
		if i != down && s.log.Head() > stopped-1 {
			t.Fatalf("survivor %d trimmed below %d, past the down server's committed %d", i, s.log.Head(), stopped)
		}
	}

	before := acks
	c.Restart(down)
	sim.RunFor(50 * time.Millisecond)
	if c.LeaderIdx() != ldr || acks == before {
		t.Fatalf("leader %d (was %d), %d acks after the restart", c.LeaderIdx(), ldr, acks-before)
	}
	if got := c.Servers[down].committed; got < stopped+missed {
		t.Fatalf("the restarted server committed %d, short of the %d committed while it was down", got, stopped+missed)
	}
	for i, s := range c.Servers {
		t.Logf("server %d: down at %d, %d missed; now committed %d, holding [%d:%d]", i, stopped, missed, s.committed, s.log.Head(), s.log.Len())
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	bounded("after the rejoin")
}

// TestZabClaimsGoBack: a payload's claim on the arena goes back when its
// request is dropped before it is proposed and when its entry is truncated,
// not only when it is trimmed. The arena rewinds an open chunk whose last
// claim goes, so the next payload lands where the first one did; a claim kept
// past its owner would put it after.
func TestZabClaimsGoBack(t *testing.T) {
	_, c, _ := newCluster(t, 3, 1)
	s := c.Servers[0] // not leading: every proposal is dropped
	p := []byte("a request's payload")
	first, ch := s.arena.Own(p)
	s.propose(1, entry{chunk: ch, payload: first})
	if s.log.Len() != 0 {
		t.Fatal("a server that is not leading proposed")
	}
	again, _ := s.arena.Own(p)
	if unsafe.SliceData(again) != unsafe.SliceData(first) {
		t.Fatal("a dropped request kept its claim on the arena")
	}
	s.arena.Release(ch)

	e := s.logReceived(1, p)
	s.logReceived(2, p)
	s.truncate(0)
	again, ch = s.arena.Own(p)
	if unsafe.SliceData(again) != unsafe.SliceData(e.payload) {
		t.Fatal("truncated entries kept their claims on the arena")
	}
	s.arena.Release(ch)
}
