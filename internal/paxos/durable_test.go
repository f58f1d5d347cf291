package paxos

import (
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/disk"
	"acuerdo/internal/observe"
	"acuerdo/internal/simnet"
	"acuerdo/internal/tcpnet"
)

// newDurableCluster builds a libpaxos deployment with one simulated disk per
// server and the invariant observer attached; restart replay rides the
// checker's replay window.
func newDurableCluster(t *testing.T, n int, seed int64) (*simnet.Sim, *Cluster, *abcast.Checker, *observe.Observer, []*disk.Device) {
	t.Helper()
	sim := simnet.New(seed)
	net := tcpnet.New(sim, tcpnet.DefaultParams())
	c := NewCluster(sim, net, DefaultConfig(n))
	obs := observe.New(observe.Config{System: "libpaxos", Nodes: n, Seed: seed})
	c.Subscribe(obs)
	devs := make([]*disk.Device, n)
	for i := range devs {
		devs[i] = disk.NewDevice(sim, i, disk.DefaultParams())
	}
	c.SetDisks(devs)
	chk := abcast.NewChecker(n)
	c.OnDeliver = func(r int, inst uint64, payload []byte) {
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

// TestDurableRestartRecoversFromDisk crashes a follower replica (losing all
// its memory), restarts it from its acceptor and learner logs, and checks
// the recovered state: no observer violations, total order intact, recovery
// bytes accounted, and the deployment keeps committing.
func TestDurableRestartRecoversFromDisk(t *testing.T) {
	sim, c, chk, obs, _ := newDurableCluster(t, 3, 9)
	sim.RunFor(50 * time.Millisecond)
	acks := driveLoad(sim, c, chk, 4)
	sim.RunFor(30 * time.Millisecond)

	victim := 2 // follower: the proposer keeps serving through the crash
	preDelivered := c.Servers[victim].delivered
	if preDelivered == 0 {
		t.Fatal("victim delivered nothing before the kill")
	}
	c.Crash(victim)
	chk.NodeRestart(victim)
	c.Restart(victim)

	s := c.Servers[victim]
	if len(s.chosen) == 0 && s.delivered == 0 {
		t.Fatal("nothing recovered from the learner log")
	}
	if s.delivered > preDelivered {
		t.Fatalf("recovered frontier %d beyond pre-crash %d", s.delivered, preDelivered)
	}
	if c.DiskRecoveredBytes() == 0 {
		t.Fatal("disk recovery bytes not counted")
	}

	sim.RunFor(100 * time.Millisecond)
	acksBefore := *acks
	sim.RunFor(50 * time.Millisecond)
	if *acks == acksBefore {
		t.Fatal("no commits after the durable restart")
	}
	if s.delivered < preDelivered {
		t.Fatalf("learner stuck at %d, was at %d before the crash", s.delivered, preDelivered)
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	if n := obs.ViolationCount(); n != 0 {
		t.Fatalf("%d invariant violations:\n%s", n, obs.Report())
	}
}

// TestDurableProposerCrashRecovers kills the proposer: failover elects a new
// one, and the restarted replica recovers its acceptor state from disk so
// its promise floor survives the crash.
func TestDurableProposerCrashRecovers(t *testing.T) {
	sim, c, chk, obs, _ := newDurableCluster(t, 3, 11)
	sim.RunFor(50 * time.Millisecond)
	driveLoad(sim, c, chk, 4)
	sim.RunFor(30 * time.Millisecond)

	victim := c.LeaderIdx()
	if victim < 0 {
		t.Fatal("no proposer before the kill")
	}
	c.Crash(victim)
	chk.NodeRestart(victim)
	sim.RunFor(50 * time.Millisecond) // failover elects a new proposer
	c.Restart(victim)
	if c.Servers[victim].promised == 0 {
		t.Fatal("promise floor not recovered from the acceptor log")
	}
	sim.RunFor(200 * time.Millisecond)

	if c.LeaderIdx() < 0 {
		t.Fatal("no proposer after failover")
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
		sim.RunFor(50 * time.Millisecond)
		driveLoad(sim, c, chk, 4)
		sim.RunFor(30 * time.Millisecond)
		c.Crash(2)
		chk.NodeRestart(2)
		c.Restart(2)
		sim.RunFor(100 * time.Millisecond)
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
// checksummed prefix — replay stops at the partial record and the learner
// refetches the rest from its peers.
func TestDurableTornRestart(t *testing.T) {
	sim, c, chk, obs, devs := newDurableCluster(t, 3, 23)
	sim.RunFor(50 * time.Millisecond)
	driveLoad(sim, c, chk, 4)
	sim.RunFor(30 * time.Millisecond)

	victim := 1
	devs[victim].ArmTornWrite()
	c.Crash(victim)
	chk.NodeRestart(victim)
	c.Restart(victim)
	sim.RunFor(150 * time.Millisecond)

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
	sim.RunFor(50 * time.Millisecond)
	for _, s := range c.Servers {
		if s.astore != nil || s.lstore != nil || s.dev != nil {
			t.Fatal("volatile deployment grew disk state")
		}
	}
	c.SetDisks(nil) // explicit nil keeps volatile mode
	for _, s := range c.Servers {
		if s.astore != nil {
			t.Fatal("SetDisks(nil) switched modes")
		}
	}
}
