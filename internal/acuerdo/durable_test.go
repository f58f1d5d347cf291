package acuerdo

import (
	"testing"
	"time"
	"unsafe"

	"acuerdo/internal/abcast"
	"acuerdo/internal/disk"
	"acuerdo/internal/observe"
	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
)

// newDurableCluster builds an acuerdo group with one simulated disk per
// replica and the invariant observer attached; restart replay rides the
// checker's replay window.
func newDurableCluster(t *testing.T, n int, seed int64) (*simnet.Sim, *Cluster, *abcast.Checker, *observe.Observer, []*disk.Device) {
	t.Helper()
	sim := simnet.New(seed)
	fabric := rdma.NewFabric(sim, rdma.DefaultParams())
	c := NewCluster(sim, fabric, DefaultClusterConfig(n))
	obs := observe.New(observe.Config{System: "acuerdo", Nodes: n, Seed: seed})
	c.Subscribe(obs)
	devs := make([]*disk.Device, n)
	for i := range devs {
		devs[i] = disk.NewDevice(sim, i, disk.DefaultParams())
	}
	c.SetDisks(devs)
	chk := abcast.NewChecker(n)
	c.OnDeliver = func(replica int, hdr MsgHdr, payload []byte) {
		if err := chk.OnDeliver(replica, abcast.MsgID(payload)); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	return sim, c, chk, obs, devs
}

// driveAcuerdoLoad runs a small closed loop of w clients and returns the
// ack count pointer.
func driveAcuerdoLoad(sim *simnet.Sim, c *Cluster, chk *abcast.Checker, w int) *int {
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
// memory), restarts it from its WAL, and checks the recovered state: the
// committed prefix replays from disk, the diff refills the lost tail,
// recovery bytes are accounted, and no invariant breaks.
func TestDurableRestartRecoversFromDisk(t *testing.T) {
	sim, c, chk, obs, _ := newDurableCluster(t, 3, 9)
	sim.RunFor(20 * time.Millisecond)
	acks := driveAcuerdoLoad(sim, c, chk, 4)
	sim.RunFor(20 * time.Millisecond)

	old := c.LeaderIdx()
	if old < 0 {
		t.Fatal("no leader before the kill")
	}
	c.Replicas[old].Crash()

	// Survivors elect and resume.
	deadline := sim.Now().Add(500 * time.Millisecond)
	for sim.Now() < deadline {
		sim.RunFor(2 * time.Millisecond)
		if l := c.LeaderIdx(); l >= 0 && l != old && c.Ready() {
			break
		}
	}
	if l := c.LeaderIdx(); l < 0 || l == old {
		t.Fatalf("no new leader after the kill\n%s", obs.Report())
	}
	sim.RunFor(30 * time.Millisecond)

	chk.NodeRestart(old)
	c.Replicas[old].Restart()
	r := c.Replicas[old]
	if r.LogLen() == 0 {
		t.Fatal("nothing recovered from the WAL")
	}
	if r.recovery.DiskRecoveredBytes() == 0 {
		t.Fatal("disk recovery bytes not counted")
	}
	sim.RunFor(100 * time.Millisecond)

	acksBefore := *acks
	sim.RunFor(30 * time.Millisecond)
	if *acks == acksBefore {
		t.Fatal("no commits after the durable restart")
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatalf("%v\n%s", err, obs.Report())
	}
	if n := obs.ViolationCount(); n != 0 {
		t.Fatalf("%d invariant violations:\n%s", n, obs.Report())
	}
	// The restarted replica must have rejoined the live epoch, not be stuck
	// replaying its recovered snapshot forever.
	if r.committed.E.Round == 0 {
		t.Fatal("restarted replica never rejoined a live epoch")
	}
}

// TestDurableRestartSameSeedSameDisk: recovery is deterministic — two runs
// of the same seeded crash/restart schedule leave bit-identical durable
// state on every device.
func TestDurableRestartSameSeedSameDisk(t *testing.T) {
	run := func() []uint64 {
		sim, c, chk, _, devs := newDurableCluster(t, 3, 17)
		sim.RunFor(20 * time.Millisecond)
		driveAcuerdoLoad(sim, c, chk, 4)
		sim.RunFor(20 * time.Millisecond)
		victim := c.LeaderIdx()
		c.Replicas[victim].Crash()
		sim.RunFor(50 * time.Millisecond)
		chk.NodeRestart(victim)
		c.Replicas[victim].Restart()
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
// checksummed prefix — replay stops at the partial record and the next
// epoch's diff refills the rest over the fabric.
func TestDurableTornRestart(t *testing.T) {
	sim, c, chk, obs, devs := newDurableCluster(t, 3, 23)
	sim.RunFor(20 * time.Millisecond)
	driveAcuerdoLoad(sim, c, chk, 4)
	sim.RunFor(20 * time.Millisecond)

	victim := c.LeaderIdx()
	devs[victim].ArmTornWrite()
	c.Replicas[victim].Crash()
	sim.RunFor(50 * time.Millisecond)
	chk.NodeRestart(victim)
	c.Replicas[victim].Restart()
	sim.RunFor(150 * time.Millisecond)

	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatalf("%v\n%s", err, obs.Report())
	}
	if n := obs.ViolationCount(); n != 0 {
		t.Fatalf("%d invariant violations after torn restart:\n%s", n, obs.Report())
	}
}

// TestDurableRestartAllocFree: a durable restart empties the log in place
// and replays the WAL into the arrays the log had already grown to. The
// deque keeps its array and capacity, the arena opens no chunk it did not
// hold before the crash, and no slot outside the live range keeps a payload.
func TestDurableRestartAllocFree(t *testing.T) {
	sim, c, chk, _, _ := newDurableCluster(t, 3, 9)
	sim.RunFor(20 * time.Millisecond)
	stop := false
	loadLoop(sim, c, chk, 16, 100, &stop)
	sim.RunFor(5 * time.Millisecond)
	stop = true
	sim.RunFor(5 * time.Millisecond)

	victim := (c.LeaderIdx() + 1) % len(c.Replicas)
	r := c.Replicas[victim]
	if r.LogLen() < 1000 {
		t.Fatalf("replica %d holds %d entries before the crash, want a long log", victim, r.LogLen())
	}
	deque, slots := unsafe.SliceData(r.log.entries), cap(r.log.entries)
	chunks := make([]*byte, len(r.log.chunks))
	for i, ch := range r.log.chunks {
		chunks[i] = unsafe.SliceData(ch.buf)
	}
	r.Crash()
	chk.NodeRestart(victim)
	r.Restart()

	l := &r.log
	if l.Len() == 0 {
		t.Fatal("the restart recovered nothing")
	}
	if unsafe.SliceData(l.entries) != deque || cap(l.entries) != slots {
		t.Fatalf("the replay regrew the deque: %d slots, %d before the crash", cap(l.entries), slots)
	}
	if len(l.chunks) != len(chunks) {
		t.Fatalf("the replay opened %d arena chunks, %d before the crash", len(l.chunks), len(chunks))
	}
	for i, ch := range l.chunks {
		if unsafe.SliceData(ch.buf) != chunks[i] {
			t.Fatalf("arena chunk %d was reallocated by the replay", i+1)
		}
	}
	all := l.entries[:cap(l.entries)]
	for i := range all {
		if live := i >= l.head && i < len(l.entries); !live && (all[i].Payload != nil || all[i].chunk != 0) {
			t.Fatalf("slot %d, outside the live range [%d, %d), holds a payload", i, l.head, len(l.entries))
		}
	}
}

// TestVolatileModeUnchanged pins the opt-in contract: without SetDisk no
// device exists and the legacy restart semantics hold.
func TestVolatileModeUnchanged(t *testing.T) {
	sim := simnet.New(5)
	fabric := rdma.NewFabric(sim, rdma.DefaultParams())
	c := NewCluster(sim, fabric, DefaultClusterConfig(3))
	c.Start()
	sim.RunFor(20 * time.Millisecond)
	for _, r := range c.Replicas {
		if r.store != nil || r.dev != nil {
			t.Fatal("volatile group grew disk state")
		}
	}
	c.SetDisks(nil) // explicit nil keeps volatile mode
	for _, r := range c.Replicas {
		if r.store != nil {
			t.Fatal("SetDisks(nil) switched modes")
		}
		r.SetDisk(nil)
		if r.store != nil {
			t.Fatal("SetDisk(nil) switched modes")
		}
	}
}
