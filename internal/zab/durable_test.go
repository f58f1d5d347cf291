package zab

import (
	"bytes"
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/disk"
	"acuerdo/internal/observe"
	"acuerdo/internal/simnet"
	"acuerdo/internal/tcpnet"
)

// newDurableCluster builds a zab ensemble with one simulated disk per server
// and the invariant observer attached; restart replay rides the checker's
// replay window.
func newDurableCluster(t *testing.T, n int, seed int64) (*simnet.Sim, *Cluster, *abcast.Checker, *observe.Observer, []*disk.Device) {
	t.Helper()
	sim := simnet.New(seed)
	net := tcpnet.New(sim, tcpnet.DefaultParams())
	c := NewCluster(sim, net, n)
	obs := observe.New(observe.Config{System: "zookeeper", Nodes: n, Seed: seed})
	c.Subscribe(obs)
	devs := make([]*disk.Device, n)
	for i := range devs {
		devs[i] = disk.NewDevice(sim, i, disk.DefaultParams())
	}
	c.SetDisks(devs)
	chk := abcast.NewChecker(n)
	c.OnDeliver = func(r int, zxid uint64, payload []byte) {
		if err := chk.OnDeliver(r, abcast.MsgID(payload)); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	return sim, c, chk, obs, devs
}

// driveLoad runs a small closed loop of w clients and returns the ack count
// pointer.
func driveLoad(sim *simnet.Sim, c *Cluster, chk *abcast.Checker, w int) *int {
	acks := new(int)
	abcast.Loop(sim, c, w, func(id uint64, next func()) {
		p := make([]byte, 16)
		abcast.PutMsgID(p, id)
		chk.OnBroadcast(id)
		c.Submit(p, func() {
			*acks++
			next()
		})
	})
	return acks
}

// TestDurableRestartSameSeedSameDisk: recovery is deterministic — two runs
// of the same seeded crash/restart schedule leave bit-identical durable
// state on every device.
func TestDurableRestartSameSeedSameDisk(t *testing.T) {
	run := func() []uint64 {
		sim, c, chk, _, devs := newDurableCluster(t, 3, 17)
		sim.RunFor(200 * time.Millisecond)
		driveLoad(sim, c, chk, 4)
		sim.RunFor(30 * time.Millisecond)
		victim := c.LeaderIdx()
		c.Crash(victim)
		chk.NodeRestart(victim)
		c.Restart(victim)
		sim.RunFor(200 * time.Millisecond)
		out := make([]uint64, len(devs))
		for i, d := range devs {
			out[i] = uint64(d.Digest())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("device %d digest diverged between same-seed runs: %016x vs %016x", i, a[i], b[i])
		}
	}
}

// TestDurableTornRestart: a torn write at crash time still recovers a clean
// checksummed prefix — replay stops at the partial record and the rejoin
// DIFF refetches the rest over the network.
func TestDurableTornRestart(t *testing.T) {
	sim, c, chk, obs, devs := newDurableCluster(t, 3, 23)
	sim.RunFor(200 * time.Millisecond)
	driveLoad(sim, c, chk, 4)
	sim.RunFor(30 * time.Millisecond)

	victim := c.LeaderIdx()
	devs[victim].ArmTornWrite()
	c.Crash(victim)
	chk.NodeRestart(victim)
	c.Restart(victim)
	sim.RunFor(300 * time.Millisecond)

	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	if n := obs.ViolationCount(); n != 0 {
		t.Fatalf("%d invariant violations after torn restart:\n%s", n, obs.Report())
	}
}

// TestDurablePayloadsSurviveTruncation drives load whose every payload byte
// is derived from its request id, through recycled client buffers, across a
// leader crash — the followers drop their uncommitted tails for the new
// leader's DIFF, which carves the adopted entries from the arena again — and
// the old leader's durable restart, which replays RecoverLog's views. Every
// delivered payload must carry its request's bytes when it is delivered and
// still at the end of the run: nothing carved later may overwrite a view
// handed to OnDeliver. No other test reads delivered bytes after the fact on
// a Zab group: it alone kills the restart corpus's RZ4, an arena that
// recycles its chunk when the chunk fills (DESIGN §6.8).
func TestDurablePayloadsSurviveTruncation(t *testing.T) {
	sim, c, chk, obs, _ := newDurableCluster(t, 3, 31)
	fill := func(p []byte, id uint64) {
		abcast.PutMsgID(p, id)
		for i := 8; i < len(p); i++ {
			p[i] = byte(id) ^ byte(id>>8) ^ byte(i*13)
		}
	}
	const size = 48
	want := make([]byte, size)
	type view struct {
		id uint64
		p  []byte
	}
	var kept []view
	corrupt := func(id uint64, p []byte) bool { fill(want, id); return !bytes.Equal(p, want) }
	c.OnDeliver = func(r int, _ uint64, p []byte) {
		if err := chk.OnDeliver(r, abcast.MsgID(p)); err != nil {
			t.Fatal(err)
		}
		id := abcast.MsgID(p)
		if corrupt(id, p) {
			t.Fatalf("replica %d delivered request %d with the wrong bytes", r, id)
		}
		kept = append(kept, view{id, p})
	}
	sim.RunFor(200 * time.Millisecond)
	acks := 0
	reqs := abcast.Requests{Size: size, OnAck: func(*abcast.Request) { acks++ }}
	abcast.Loop(sim, c, 8, func(id uint64, next func()) {
		r := reqs.Take(id, sim.Now(), next)
		fill(r.Payload, id)
		chk.OnBroadcast(id)
		c.Submit(r.Payload, r.Done)
	})
	sim.RunFor(30 * time.Millisecond)

	old := c.LeaderIdx()
	tails := 0
	for i, s := range c.Servers {
		if i != old {
			tails += s.log.Len() - s.committed
		}
	}
	if tails == 0 {
		t.Fatal("no follower held an uncommitted tail at the crash: nothing for the DIFF to truncate")
	}
	c.Crash(old)
	sim.RunFor(50 * time.Millisecond)
	chk.NodeRestart(old)
	c.Restart(old)
	before := acks
	sim.RunFor(300 * time.Millisecond)
	if acks == before {
		t.Fatal("no commits after the failover and restart")
	}
	for i, v := range kept {
		if corrupt(v.id, v.p) {
			t.Fatalf("delivery %d (request %d) was overwritten after it was delivered: it reads as request %d", i, v.id, abcast.MsgID(v.p))
		}
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	if n := obs.ViolationCount(); n != 0 {
		t.Fatalf("%d invariant violations:\n%s", n, obs.Report())
	}
	t.Logf("%d deliveries, %d uncommitted follower entries at the crash", len(kept), tails)
}

// TestZabStoreKeepsWholeLog is the guard on the other side of s.store == nil:
// a server with a transaction log trims nothing, in durable mode and in
// amnesia mode alike. A durable server restarts from what its device kept,
// which may be less than it committed in memory, and an amnesia server from
// nothing: either refills the rest from a peer's DIFF, cut from below any
// frontier the servers' memory states. Each mode crashes a follower under
// load, wiping its device in amnesia mode, and restarts it: every server then
// holds its whole log, and the restarted one has caught up from the DIFF.
func TestZabStoreKeepsWholeLog(t *testing.T) {
	for _, amnesia := range []bool{false, true} {
		sim, c, chk, _, devs := newDurableCluster(t, 3, 9)
		sim.RunFor(200 * time.Millisecond)
		acks := driveLoad(sim, c, chk, 16)
		sim.RunFor(30 * time.Millisecond)
		victim := (c.LeaderIdx() + 1) % 3
		c.Crash(victim)
		if amnesia {
			devs[victim].Wipe()
		}
		sim.RunFor(10 * time.Millisecond)
		chk.NodeRestart(victim)
		c.Restart(victim)
		sim.RunFor(100 * time.Millisecond)
		if *acks < 1000 {
			t.Fatalf("amnesia=%v: only %d acks", amnesia, *acks)
		}
		top := c.Servers[c.LeaderIdx()].committed
		for i, s := range c.Servers {
			if s.log.Head() != 0 || s.log.Len() < s.committed {
				t.Fatalf("amnesia=%v: server %d holds [%d:%d] of %d committed: a server with a store keeps them all",
					amnesia, i, s.log.Head(), s.log.Len(), s.committed)
			}
			if s.committed < top-64 {
				t.Fatalf("amnesia=%v: server %d committed %d, the leader %d", amnesia, i, s.committed, top)
			}
		}
		if err := chk.CheckTotalOrder(); err != nil {
			t.Fatal(err)
		}
	}
}
