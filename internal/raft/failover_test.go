package raft

import (
	"testing"
	"time"

	"acuerdo/internal/abcast"
)

// TestLeaderFailoverPreservesCommittedPrefix kills the Raft leader under
// closed-loop load, waits for re-election, restarts the old leader, and
// checks that every entry committed before the kill survives at every
// replica (the restarted one catches up through AppendEntries), the total
// order stays intact, and the client keeps committing afterward.
func TestLeaderFailoverPreservesCommittedPrefix(t *testing.T) {
	sim, c, chk := newCluster(t, 3, 9)
	sim.RunFor(200 * time.Millisecond)

	acks := 0
	abcast.Loop(sim, c, 4, func(id uint64, next func()) {
		p := make([]byte, 16)
		abcast.PutMsgID(p, id)
		chk.OnBroadcast(id)
		c.Submit(p, func() {
			acks++
			next()
		})
	})
	sim.RunFor(20 * time.Millisecond)

	old := c.LeaderIdx()
	if old < 0 {
		t.Fatal("no leader before the kill")
	}
	var snap []uint64
	for i := 0; i < 3; i++ {
		if d := chk.Delivered(i); len(d) > len(snap) {
			snap = append([]uint64(nil), d...)
		}
	}
	acksAtKill := acks
	c.Crash(old)

	deadline := sim.Now().Add(time.Second)
	for sim.Now() < deadline {
		sim.RunFor(5 * time.Millisecond)
		if l := c.LeaderIdx(); l >= 0 && l != old && c.Ready() {
			break
		}
	}
	if l := c.LeaderIdx(); l < 0 || l == old {
		t.Fatalf("no new leader after the kill (leader=%d, old=%d)", l, old)
	}
	sim.RunFor(50 * time.Millisecond)
	if acks == acksAtKill {
		t.Fatal("no commits after the failover")
	}

	c.Restart(old)
	sim.RunFor(200 * time.Millisecond)

	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d := chk.Delivered(i)
		if len(d) < len(snap) {
			t.Fatalf("replica %d delivered %d < committed prefix %d at kill time", i, len(d), len(snap))
		}
		for j, id := range snap {
			if d[j] != id {
				t.Fatalf("replica %d position %d: got %d, want %d (committed prefix lost)", i, j, d[j], id)
			}
		}
	}
}
