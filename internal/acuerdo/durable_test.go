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
// and replays the WAL into what the log and the replica had already grown:
// the replay takes every list chunk it fills from the ones held before the
// crash and opens none, the arena refills its chunks without reallocating
// one, the ring-release records keep their array, and no slot of any list
// chunk outside the live range, in use or kept past the tail, keeps a
// payload. The restart allocates a few hundred bytes, the same for any
// length of WAL: the replay walks the records off the device and lists none.
// Both a follower and the leader restart: only the leader holds release
// records before its crash.
func TestDurableRestartAllocFree(t *testing.T) {
	const restartBytes = 2 << 10
	for _, role := range []string{"follower", "leader"} {
		t.Run(role, func(t *testing.T) {
			sim, c, chk, _, _ := newDurableCluster(t, 3, 9)
			sim.RunFor(20 * time.Millisecond)
			stop := false
			loadLoop(sim, c, chk, 16, 100, &stop)
			sim.RunFor(5 * time.Millisecond)
			stop = true
			sim.RunFor(5 * time.Millisecond)

			victim := c.LeaderIdx()
			if role == "follower" {
				victim = (victim + 1) % len(c.Replicas)
			}
			r := c.Replicas[victim]
			if r.LogLen() < 1000 {
				t.Fatalf("replica %d holds %d entries before the crash, want a long log", victim, r.LogLen())
			}
			if role == "leader" && cap(r.sent) == 0 {
				t.Fatalf("the leader, replica %d, holds no room for release records before the crash", victim)
			}
			before, _, _ := logChunks(&r.log)
			listChunks := map[*Entry]bool{}
			for _, c := range before {
				listChunks[&c[0]] = true
			}
			chunks, _, _ := arenaBooks(&r.log)
			sent := unsafe.SliceData(r.sent)
			r.Crash()
			chk.NodeRestart(victim)
			from, to := memSpan(r.Restart)
			if got := to.TotalAlloc - from.TotalAlloc; got > restartBytes {
				t.Fatalf("the restart of a %d-entry log allocated %d bytes, want at most %d whatever the log's length", r.LogLen(), got, restartBytes)
			}

			l := &r.log
			if l.Len() == 0 {
				t.Fatal("the restart recovered nothing")
			}
			held, _, _ := logChunks(l)
			for _, c := range held {
				if !listChunks[&c[0]] {
					t.Fatal("the replay opened a list chunk the log did not hold before the crash")
				}
			}
			if len(held) != len(before) {
				t.Fatalf("the log holds %d list chunks after the replay, %d before the crash", len(held), len(before))
			}
			replayed, _, _ := arenaBooks(l)
			if len(replayed) != len(chunks) {
				t.Fatalf("the replay opened %d arena chunks, %d before the crash", len(replayed), len(chunks))
			}
			for i, ch := range replayed {
				if ch.buf != chunks[i].buf {
					t.Fatalf("arena chunk %d was reallocated by the replay", i+1)
				}
			}
			if len(r.sent) != 0 || unsafe.SliceData(r.sent) != sent {
				t.Fatalf("the restart left %d release records, or a new array for them", len(r.sent))
			}
			checkChunks(t, l, "after the replay")
		})
	}
}
