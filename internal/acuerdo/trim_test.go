package acuerdo

import (
	"bytes"
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/simnet"
)

// fillPayload writes request id and a pattern derived from it into p, so a
// delivery can be checked byte for byte against what was submitted.
func fillPayload(p []byte, id uint64) {
	abcast.PutMsgID(p, id)
	for i := 8; i < len(p); i++ {
		p[i] = byte(id) + byte(id>>8) + byte(i*7)
	}
}

// loadLoop runs a closed loop of window clients submitting size-byte patterned
// requests until *stop is set.
func loadLoop(sim *simnet.Sim, c *Cluster, chk *abcast.Checker, window, size int, stop *bool) {
	abcast.Loop(sim, c, window, func(id uint64, next func()) {
		if *stop {
			return
		}
		p := make([]byte, size)
		fillPayload(p, id)
		chk.OnBroadcast(id)
		c.Submit(p, next)
	})
}

// TestLogBoundedState is the regression test for "a run's memory follows its
// window, not its length": a volatile group under a closed loop holds, after
// T and after 10·T, the same handful of log entries (the window plus what a
// commit-push interval and the followers' lag add) in the same few arena
// chunks at every replica, however many messages went through — and its
// leader the same handful of ring-release records (what no peer has accepted
// yet) in an array that stopped growing at the window, and every replica a
// client-request table whose rings cover the same few blocks of ids. Not
// shortened under -short: the race lane runs it at full depth.
func TestLogBoundedState(t *testing.T) {
	const (
		window, size = 16, 1000
		T            = 2 * time.Millisecond
		maxLen       = 2 * window
	)
	run := func(d time.Duration) (delivered uint64, chunks, sentCap, span int) {
		sim, c, chk := newTestCluster(t, 3, 11)
		sim.RunFor(20 * time.Millisecond)
		stop := false
		loadLoop(sim, c, chk, window, size, &stop)
		sim.RunFor(d)
		chunks = arenaLen(&c.Replicas[0].log)
		for i, r := range c.Replicas {
			held, _, _ := logChunks(&r.log)
			t.Logf("after %v: replica %d holds %d entries in %d arena chunks and %d list chunks, delivered %d, its request table covers %d ids", d, i, r.LogLen(), arenaLen(&r.log), len(held), r.Stats.Delivered, r.sessions.Span())
			if n := r.LogLen(); n > maxLen {
				t.Errorf("after %v: replica %d holds %d entries of %d delivered, want <= %d", d, i, n, r.Stats.Delivered, maxLen)
			}
			if n := arenaLen(&r.log); n != chunks {
				t.Errorf("after %v: replica %d's arena has %d chunks, replica 0's has %d", d, i, n, chunks)
			}
			// The chunk the head is in, the one the tail is in, and the spare.
			if n := len(held); n > 3 {
				t.Errorf("after %v: replica %d's log holds %d list chunks, room for %d entries, want <= 3", d, i, n, n*logChunkLen)
			}
			span = max(span, r.sessions.Span())
		}
		if err := chk.Err(); err != nil {
			t.Fatal(err)
		}
		ldr := c.Leader()
		t.Logf("after %v: leader holds %d release records of %d sent, room for %d", d, len(ldr.sent), ldr.sentBase+len(ldr.sent), cap(ldr.sent))
		if n := len(ldr.sent); n > maxLen {
			t.Errorf("after %v: leader holds %d release records of %d sent, want <= %d", d, n, ldr.sentBase+n, maxLen)
		}
		return ldr.Stats.Delivered, chunks, cap(ldr.sent), span
	}
	short, shortChunks, shortSent, shortSpan := run(T)
	long, longChunks, longSent, longSpan := run(10 * T)
	if short < 20*window || long < 8*short {
		t.Fatalf("delivered %d in %v and %d in %v: not the load this test is about", short, T, long, 10*T)
	}
	// Two: the chunk the live entries sit in and the one they spill into.
	if shortChunks != longChunks || longChunks > 2 {
		t.Fatalf("%d arena chunks after %v, %d after %v: want the same, and <= 2", shortChunks, T, longChunks, 10*T)
	}
	if shortSent != longSent || longSent > 4*maxLen {
		t.Fatalf("room for %d release records after %v, %d after %v: want the same, and <= %d", shortSent, T, longSent, 10*T, 4*maxLen)
	}
	// The window's ids straddle at most two 64-id blocks, and the rings are a
	// power of two of them.
	if shortSpan != longSpan || longSpan > 4*64 {
		t.Fatalf("client-request tables cover %d ids after %v, %d after %v: want the same, and <= %d", shortSpan, T, longSpan, 10*T, 4*64)
	}
}

// TestFrontierPinnedByDownMember: a down volatile member keeps its memory, so
// its frozen commit row pins the frontier — every survivor's log grows for
// the whole outage, because the diff that re-admits the absentee is cut from
// exactly that row. When it restarts, the live leader sees its incarnation
// rise and re-admits it: the diff covers the gap (total order, and every
// delivered byte is what was submitted), its row moves and the logs shrink
// back to the window.
func TestFrontierPinnedByDownMember(t *testing.T) {
	const window, size = 16, 200
	sim, c, chk := newTestCluster(t, 3, 8)
	want := make([]byte, size)
	c.OnDeliver = func(replica int, hdr MsgHdr, payload []byte) {
		if err := chk.OnDeliver(replica, abcast.MsgID(payload)); err != nil {
			t.Fatal(err)
		}
		if fillPayload(want, abcast.MsgID(payload)); !bytes.Equal(payload, want) {
			t.Fatalf("replica %d delivered %v with bytes that are not request %d's", replica, hdr, abcast.MsgID(payload))
		}
	}
	sim.RunFor(20 * time.Millisecond)
	stop := false
	loadLoop(sim, c, chk, window, size, &stop)
	sim.RunFor(2 * time.Millisecond)
	ldr := c.LeaderIdx()
	down := (ldr + 1) % 3
	for i, r := range c.Replicas {
		if r.LogLen() > 4*window {
			t.Fatalf("replica %d holds %d entries before the outage", i, r.LogLen())
		}
	}

	c.Crash(down)
	missedFrom := c.Replicas[ldr].Stats.Delivered
	sim.RunFor(10 * time.Millisecond)
	missed := int(c.Replicas[ldr].Stats.Delivered - missedFrom)
	if missed < 50*window {
		t.Fatalf("only %d commits during the outage", missed)
	}
	for i, r := range c.Replicas {
		if i != down && r.LogLen() < missed {
			t.Fatalf("survivor %d holds %d entries, fewer than the %d the down member missed", i, r.LogLen(), missed)
		}
	}

	c.Restart(down)
	sim.RunFor(10 * time.Millisecond)
	if l, r := c.LeaderIdx(), c.Replicas[down]; l != ldr || r.Role() != Follower || r.Epoch() != c.Replicas[ldr].Epoch() {
		t.Fatalf("leader %d (was %d), restarted replica %d is %v in %v", l, ldr, down, r.Role(), r.Epoch())
	}
	stop = true
	sim.RunFor(5 * time.Millisecond)
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	all := c.Replicas[c.LeaderIdx()].Stats.Delivered
	for i, r := range c.Replicas {
		if r.Stats.Delivered != all {
			t.Fatalf("replica %d delivered %d of %d after rejoining", i, r.Stats.Delivered, all)
		}
		if r.LogLen() > 4*window {
			t.Fatalf("replica %d still holds %d entries after the rejoin", i, r.LogLen())
		}
	}
}

// TestStoreKeepsWholeLog is the guard on the other side of r.store == nil: a
// replica with a disk.LogStore trims nothing. A down member's frozen commit
// row states what it committed in memory, which is more than its WAL will
// give back after a power cut, so trimming on the rows would delete entries
// that member needs when it restarts. Lift this guard together with ROADMAP
// item 12's fix, on purpose, not by accident.
func TestStoreKeepsWholeLog(t *testing.T) {
	sim, c, chk, _, _ := newDurableCluster(t, 3, 9)
	sim.RunFor(20 * time.Millisecond)
	stop := false
	loadLoop(sim, c, chk, 16, 100, &stop)
	sim.RunFor(5 * time.Millisecond)
	stop = true
	sim.RunFor(5 * time.Millisecond)
	for i, r := range c.Replicas {
		if r.Stats.Delivered < 1000 {
			t.Fatalf("replica %d delivered only %d", i, r.Stats.Delivered)
		}
		if uint64(r.LogLen()) != r.Stats.Delivered {
			t.Fatalf("replica %d holds %d entries of %d delivered: a replica with a store keeps them all", i, r.LogLen(), r.Stats.Delivered)
		}
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaderBusyTimeCountsCharges: a leader's BusyTime is every nanosecond it
// was charged — poll iterations, verb posts, and the per-message and
// per-delivery costs booked with Proc.Charge — so it is never less than the
// sum of what the leader's own counters say it was charged.
func TestLeaderBusyTimeCountsCharges(t *testing.T) {
	const window, size = 256, 1000
	sim, c, chk := newTestCluster(t, 7, 3)
	sim.RunFor(20 * time.Millisecond)
	stop := false
	loadLoop(sim, c, chk, window, size, &stop)
	sim.RunFor(time.Millisecond)

	ldr := c.Leader()
	polls, clientPoll := 0, ldr.OnPoll
	ldr.OnPoll = func() { polls++; clientPoll() }
	proc := ldr.Node.Proc
	busy0, writes0, stats0, t0 := proc.BusyTime(), ldr.Node.Writes, ldr.Stats, sim.Now()
	sim.RunFor(2 * time.Millisecond)
	busy, elapsed := proc.BusyTime()-busy0, sim.Now().Sub(t0)
	if c.Leader() != ldr || chk.Err() != nil {
		t.Fatalf("leader changed or order lost under load: %v", chk.Err())
	}

	// polls-1: the iteration in flight at t0 was charged before it.
	floor := time.Duration(polls-1)*pollCost +
		time.Duration(ldr.Node.Writes-writes0)*c.Fabric.Params.PostCost +
		time.Duration(ldr.Stats.Broadcasts-stats0.Broadcasts)*perMsgCost +
		time.Duration(ldr.Stats.Delivered-stats0.Delivered)*deliverCost
	t.Logf("leader busy %v of %v (%.2f); polls, posts, broadcasts and deliveries alone account for %v",
		busy, elapsed, float64(busy)/float64(elapsed), floor)
	if busy < floor {
		t.Fatalf("BusyTime moved %v in %v, less than the %v the leader was charged", busy, elapsed, floor)
	}
	if busy < elapsed/2 || busy > elapsed {
		t.Fatalf("a leader at window %d reads %.2f busy, want a loaded CPU and at most 1", window, float64(busy)/float64(elapsed))
	}
}
