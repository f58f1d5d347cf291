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
	c := NewCluster(sim, net, DefaultConfig(n))
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

// TestDurableRestartRecoversFromDisk crashes the active leader (losing all
// its memory), restarts it from its transaction log, and checks the
// recovered state: no observer violations, total order intact, recovery
// bytes accounted, and the ensemble keeps committing.
func TestDurableRestartRecoversFromDisk(t *testing.T) {
	sim, c, chk, obs, _ := newDurableCluster(t, 3, 9)
	sim.RunFor(200 * time.Millisecond)
	acks := driveLoad(sim, c, chk, 4)
	sim.RunFor(30 * time.Millisecond)

	old := c.LeaderIdx()
	if old < 0 {
		t.Fatal("no leader before the kill")
	}
	preCrashLog := c.Servers[old].log.Len()
	c.Crash(old)
	chk.NodeRestart(old)
	c.Restart(old)

	s := c.Servers[old]
	if s.log.Len() == 0 {
		t.Fatal("nothing recovered from the transaction log")
	}
	if s.log.Len() > preCrashLog {
		t.Fatalf("recovered %d entries, had only %d before the crash", s.log.Len(), preCrashLog)
	}
	if c.DiskRecoveredBytes() == 0 {
		t.Fatal("disk recovery bytes not counted")
	}

	sim.RunFor(300 * time.Millisecond)
	acksBefore := *acks
	sim.RunFor(50 * time.Millisecond)
	if *acks == acksBefore {
		t.Fatal("no commits after the durable restart")
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	if n := obs.ViolationCount(); n != 0 {
		t.Fatalf("%d invariant violations:\n%s", n, obs.Report())
	}
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

// TestVolatileModeUnchanged pins the opt-in contract: without SetDisks no
// device exists and the legacy restart semantics hold.
func TestVolatileModeUnchanged(t *testing.T) {
	sim, c, _ := newCluster(t, 3, 5)
	sim.RunFor(200 * time.Millisecond)
	for _, s := range c.Servers {
		if s.store != nil || s.dev != nil {
			t.Fatal("volatile ensemble grew disk state")
		}
	}
	c.SetDisks(nil) // explicit nil keeps volatile mode
	for _, s := range c.Servers {
		if s.store != nil {
			t.Fatal("SetDisks(nil) switched modes")
		}
	}
}

// TestDurablePayloadsSurviveTruncation drives load whose every payload byte
// is derived from its request id, through recycled client buffers, across a
// leader crash — the followers drop their uncommitted tails for the new
// leader's DIFF, which carves the adopted entries from the arena again — and
// the old leader's durable restart, which replays RecoverLog's views. Every
// delivered payload must carry its request's bytes when it is delivered and
// still at the end of the run: nothing carved later may overwrite a view
// handed to OnDeliver.
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
