package derecho

import (
	"testing"
	"time"

	"acuerdo/internal/abcast"
)

// TestSenderFailoverPreservesCommittedPrefix kills the view leader under
// closed-loop client load. The survivors must wedge, agree on the ragged
// trim, install the shrunken view, and resume; everything delivered
// anywhere before the kill must survive at the survivors in the same
// order, and client requests in flight at the kill must eventually commit
// (the client re-sends once the view excludes the dead member, and the
// member-side delivered-id check absorbs any message that made the trim).
func TestSenderFailoverPreservesCommittedPrefix(t *testing.T) {
	sim, c, chk := newCluster(t, 3, LeaderMode, 9)
	sim.RunFor(10 * time.Millisecond)

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
	sim.RunFor(10 * time.Millisecond)

	old := c.LeaderIdx()
	if old < 0 {
		t.Fatal("no view leader before the kill")
	}
	var snap []uint64
	for i := 0; i < 3; i++ {
		if d := chk.Delivered(i); len(d) > len(snap) {
			snap = append([]uint64(nil), d...)
		}
	}
	acksAtKill := acks
	c.Crash(old)

	deadline := sim.Now().Add(500 * time.Millisecond)
	for sim.Now() < deadline {
		sim.RunFor(2 * time.Millisecond)
		if l := c.LeaderIdx(); l >= 0 && l != old && c.Ready() {
			break
		}
	}
	if l := c.LeaderIdx(); l < 0 || l == old {
		t.Fatalf("no new view leader after the kill (leader=%d, old=%d)", l, old)
	}
	sim.RunFor(50 * time.Millisecond)
	if acks == acksAtKill {
		t.Fatal("no commits after the view change")
	}

	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	// The crashed member stays out (no join protocol); only the survivors
	// must carry the committed prefix forward.
	for i := 0; i < 3; i++ {
		if i == old {
			continue
		}
		d := chk.Delivered(i)
		if len(d) < len(snap) {
			t.Fatalf("survivor %d delivered %d < committed prefix %d at kill time", i, len(d), len(snap))
		}
		for j, id := range snap {
			if d[j] != id {
				t.Fatalf("survivor %d position %d: got %d, want %d (committed prefix lost)", i, j, d[j], id)
			}
		}
	}
}
