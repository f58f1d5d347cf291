package acuerdo

import (
	"slices"
	"testing"
	"time"

	"acuerdo/internal/abcast"
)

// TestRetryAcrossFailoverIsReacked: a client request that reaches a new
// leader again is re-acknowledged or dropped, never proposed a second time.
// The old leader crashes the moment both followers have accepted a request
// whose commit none of them has seen, so it sits in the new leader's diff
// tail; when the new leader wins, its request ring receives that request
// again and one every replica delivered before the crash. Each is delivered
// exactly once at every replica, and the client's done for each runs once.
func TestRetryAcrossFailoverIsReacked(t *testing.T) {
	sim, c, chk := newTestCluster(t, 3, 15)
	sim.RunFor(20 * time.Millisecond)
	old := c.LeaderIdx()
	payload := make(map[uint64][]byte)
	done := make(map[uint64]int)
	submit := func(id uint64) {
		p := make([]byte, 16)
		abcast.PutMsgID(p, id)
		payload[id] = p
		chk.OnBroadcast(id)
		c.Submit(p, func() { done[id]++ })
	}
	const delivered, inTail = 1, 2

	submit(delivered)
	sim.RunFor(time.Millisecond)
	for i := range c.Replicas {
		if len(chk.Delivered(i)) != 1 {
			t.Fatalf("replica %d delivered %v before the crash, want [%d]", i, chk.Delivered(i), delivered)
		}
	}
	submit(inTail)
	ldr := c.Replicas[old]
	for step := 0; ; step++ {
		if step > 1000 {
			t.Fatal("the followers never accepted the second request")
		}
		sim.RunFor(100 * time.Nanosecond)
		n := 0
		for i, r := range c.Replicas {
			if i != old && ldr.Stats.Broadcasts == 2 && r.Accepted() == ldr.Accepted() {
				n++
			}
		}
		if n == 2 {
			break
		}
	}
	ldr.Crash()
	for i := range c.Replicas {
		if i != old && len(chk.Delivered(i)) != 1 {
			t.Fatalf("follower %d delivered %v at the crash: request %d is not in a diff tail", i, chk.Delivered(i), inTail)
		}
	}

	won := -1
	for i, r := range c.Replicas {
		if i == old {
			continue
		}
		r.OnElected = func(Epoch) {
			won = i
			if len(chk.Delivered(i)) != 1 {
				t.Fatalf("new leader %d delivered %v before its diff committed", i, chk.Delivered(i))
			}
			c.link.Request(i, payload[delivered])
			c.link.Request(i, payload[inTail])
		}
	}
	sim.RunFor(50 * time.Millisecond)
	if won < 0 {
		t.Fatal("no new leader")
	}
	for i := range c.Replicas {
		if i == old {
			continue
		}
		if got := chk.Delivered(i); !slices.Equal(got, []uint64{delivered, inTail}) {
			t.Fatalf("replica %d delivered %v, want [%d %d] once each", i, got, delivered, inTail)
		}
	}
	if done[delivered] != 1 || done[inTail] != 1 {
		t.Fatalf("client done ran %d and %d times, want once each", done[delivered], done[inTail])
	}
}
