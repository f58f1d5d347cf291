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
	c := NewCluster(sim, net, n)
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

// TestDurableProposerCrashRecovers kills the proposer: failover elects a new
// one, and the restarted replica recovers its acceptor state from disk so
// its promise floor survives the crash. It stays for the unexported promise
// it pins: under -short it alone kills the restart corpus's RL1, a
// restartDurable that forgets the recovered promise (DESIGN §6.8; on the
// full run bench.TestDurableTornWriteRestart kills it too).
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
