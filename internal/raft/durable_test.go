package raft

import (
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/disk"
	"acuerdo/internal/observe"
	"acuerdo/internal/simnet"
	"acuerdo/internal/tcpnet"
)

// newDurableCluster builds a raft cluster with one simulated disk per
// server and the invariant observer attached; restart replay rides the
// checker's replay window.
func newDurableCluster(t *testing.T, n int, seed int64) (*simnet.Sim, *Cluster, *abcast.Checker, *observe.Observer, []*disk.Device) {
	t.Helper()
	sim := simnet.New(seed)
	net := tcpnet.New(sim, tcpnet.DefaultParams())
	c := NewCluster(sim, net, n)
	obs := observe.New(observe.Config{System: "etcd", Nodes: n, Seed: seed})
	c.Subscribe(obs)
	devs := make([]*disk.Device, n)
	for i := range devs {
		devs[i] = disk.NewDevice(sim, i, disk.DefaultParams())
	}
	c.SetDisks(devs)
	chk := abcast.NewChecker(n)
	c.OnDeliver = func(r, idx int, payload []byte) {
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

// TestDurableRestartRecoversFromDisk crashes the leader (losing all its
// memory), restarts it from its WAL, and checks the recovered state: no
// observer violations, committed prefix intact everywhere, recovery bytes
// accounted, and the cluster keeps committing. The cross-system restart
// contract (bench.TestRestartedReplicaRejoins) asserts the rest; this test
// stays for the unexported term it pins: it alone kills the restart
// corpus's RR2, a restartDurable that forgets the term it recovered (DESIGN
// §6.8).
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
		t.Fatal("nothing recovered from the WAL")
	}
	if s.log.Len() > preCrashLog {
		t.Fatalf("recovered %d entries, had only %d before the crash", s.log.Len(), preCrashLog)
	}
	if s.term == 0 {
		t.Fatal("term metadata not recovered")
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
	if c.FabricRecoveryBytes() == 0 && c.Servers[old].preCrashLen > s.log.Len() {
		t.Fatal("lost tail re-replicated but fabric recovery bytes not counted")
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
// checksummed prefix — replay stops at the partial record and raft refetches
// the rest over the network.
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
