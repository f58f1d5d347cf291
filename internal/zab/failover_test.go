package zab

import (
	"testing"
	"time"

	"acuerdo/internal/abcast"
)

// TestLeaderFailoverPreservesCommittedPrefix drives closed-loop load, kills
// the leader mid-stream, waits for the re-election and DIFF sync, restarts
// the old leader, and checks the whole history: everything delivered
// anywhere before the kill survives at every replica (including the
// restarted one, which must catch up via the sync protocol), the total
// order stays intact, and the client keeps committing after the failover.
func TestLeaderFailoverPreservesCommittedPrefix(t *testing.T) {
	sim, c, chk := newCluster(t, 3, 9)
	sim.RunFor(100 * time.Millisecond)

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
	// Snapshot the longest committed prefix at kill time.
	var snap []uint64
	for i := 0; i < 3; i++ {
		if d := chk.Delivered(i); len(d) > len(snap) {
			snap = append([]uint64(nil), d...)
		}
	}
	acksAtKill := acks
	c.Crash(old)

	// Survivors must elect and resume.
	deadline := sim.Now().Add(500 * time.Millisecond)
	for sim.Now() < deadline {
		sim.RunFor(2 * time.Millisecond)
		if l := c.LeaderIdx(); l >= 0 && l != old && c.Ready() {
			break
		}
	}
	if l := c.LeaderIdx(); l < 0 || l == old {
		t.Fatalf("no new leader after the kill (leader=%d, old=%d)", l, old)
	}
	sim.RunFor(30 * time.Millisecond)
	if acks == acksAtKill {
		t.Fatal("no commits after the failover")
	}

	// The old leader rejoins and must catch up on everything it missed.
	c.Restart(old)
	sim.RunFor(100 * time.Millisecond)

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
