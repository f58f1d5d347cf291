package raft

import (
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/chunks"
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

// TestDurableRewrittenSlotRecovers: a follower that truncates a suffix of
// its WAL and rewrites the first slot of it recovers the rewritten entry,
// and nothing of the suffix behind it, from that WAL. The follower is alone,
// its peers down, and fed two AppendEntries directly: three entries, then a
// conflicting one at a higher term over the second of them.
func TestDurableRewrittenSlotRecovers(t *testing.T) {
	sim := simnet.New(9)
	c := NewCluster(sim, tcpnet.New(sim, tcpnet.DefaultParams()), 3)
	devs := make([]*disk.Device, 3)
	for i := range devs {
		devs[i] = disk.NewDevice(sim, i, disk.DefaultParams())
	}
	c.SetDisks(devs)
	c.Start()
	sim.RunFor(200 * time.Millisecond)
	ldr := c.LeaderIdx()
	if ldr < 0 {
		t.Fatal("no leader")
	}
	f := (ldr + 1) % 3
	c.Crash(ldr)
	c.Crash((ldr + 2) % 3)
	s := c.Servers[f]
	sim.RunFor(5 * time.Millisecond)
	base := s.log.Len()
	send := func(term uint64, prev int, payloads ...string) {
		var l chunks.List[entry]
		for range prev {
			l.Append(entry{})
		}
		for _, p := range payloads {
			l.Append(entry{term: term, payload: []byte(p)})
		}
		prevTerm := uint64(0)
		if prev > 0 {
			prevTerm = s.log.At(prev - 1).term
		}
		s.onAppend(encodeAppend(term, ldr, prev, prevTerm, 0, &l, l.Len()))
		sim.RunFor(5 * time.Millisecond)
	}
	term := s.term + 1
	send(term, base, "old-0", "old-1", "old-2")
	send(term+1, base+1, "new-1")
	if s.walLen != base+2 {
		t.Fatalf("the WAL covers %d entries after the rewrite, want %d", s.walLen, base+2)
	}
	c.Crash(f)
	c.Restart(f)
	if s.log.Len() != base+2 {
		t.Fatalf("recovered %d entries, want the %d before the truncated slot and the rewritten one", s.log.Len(), base+2)
	}
	if e := s.log.At(base + 1); e.term != term+1 || string(e.payload) != "new-1" {
		t.Fatalf("the rewritten slot recovered as term %d %q, want term %d %q", e.term, e.payload, term+1, "new-1")
	}
	if e := s.log.At(base); e.term != term || string(e.payload) != "old-0" {
		t.Fatalf("the slot below the truncate recovered as term %d %q, want term %d %q", e.term, e.payload, term, "old-0")
	}
}
