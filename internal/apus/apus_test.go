package apus

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
)

func newCluster(t *testing.T, n int, seed int64) (*simnet.Sim, *Cluster, *abcast.Checker) {
	t.Helper()
	sim := simnet.New(seed)
	fabric := rdma.NewFabric(sim, rdma.DefaultParams())
	c := NewCluster(sim, fabric, n)
	chk := abcast.NewChecker(n)
	c.OnDeliver = func(r int, idx uint64, payload []byte) {
		if err := chk.OnDeliver(r, abcast.MsgID(payload)); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	return sim, c, chk
}

func TestTotalOrder(t *testing.T) {
	sim, c, chk := newCluster(t, 3, 1)
	done := 0
	for i := uint64(1); i <= 200; i++ {
		p := make([]byte, 16)
		abcast.PutMsgID(p, i)
		chk.OnBroadcast(i)
		c.Submit(p, func() { done++ })
	}
	sim.RunFor(100 * time.Millisecond)
	if done != 200 {
		t.Fatalf("committed %d of 200", done)
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if len(chk.Delivered(i)) != 200 {
			t.Fatalf("replica %d delivered %d", i, len(chk.Delivered(i)))
		}
	}
}

func TestLatencyBand(t *testing.T) {
	// RDMA writes but batch waits and per-message Paxos instances: APUS
	// should land in the tens of microseconds, above Acuerdo's ~10us.
	sim, c, chk := newCluster(t, 3, 2)
	sim.RunFor(time.Millisecond)
	var lat time.Duration
	p := make([]byte, 16)
	abcast.PutMsgID(p, 1)
	chk.OnBroadcast(1)
	start := sim.Now()
	c.Submit(p, func() { lat = sim.Now().Sub(start) })
	sim.RunFor(10 * time.Millisecond)
	if lat == 0 {
		t.Fatal("never committed")
	}
	if lat < 10*time.Microsecond || lat > 200*time.Microsecond {
		t.Fatalf("latency = %v, want ~20-60us", lat)
	}
}

func TestSinglePendingBatch(t *testing.T) {
	// While a batch is pending, new messages must queue into the next one:
	// at no time may two batches be outstanding.
	sim, c, chk := newCluster(t, 3, 3)
	for i := uint64(1); i <= 50; i++ {
		p := make([]byte, 16)
		abcast.PutMsgID(p, i)
		chk.OnBroadcast(i)
		c.Submit(p, nil)
	}
	// Step the simulation manually and observe the invariant.
	for k := 0; k < 200000 && sim.Step(); k++ {
		if c.batchEnd != 0 && c.batchEnd < c.committed {
			t.Fatal("batch accounting broken")
		}
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestSlowAcceptorStallsBatch(t *testing.T) {
	// With n=3 (quorum 2) and ONE acceptor paused, commits continue; the
	// key APUS weakness appears when the delay hits the quorum path: pause
	// both acceptors and the pipeline stalls entirely until they wake.
	sim, c, chk := newCluster(t, 3, 4)
	sim.RunFor(time.Millisecond)
	done := 0
	for i := uint64(1); i <= 10; i++ {
		p := make([]byte, 16)
		abcast.PutMsgID(p, i)
		chk.OnBroadcast(i)
		c.Submit(p, func() { done++ })
	}
	sim.RunFor(5 * time.Millisecond)
	if done != 10 {
		t.Fatalf("warmup: %d of 10", done)
	}
	c.nodes[1].Proc.Pause(3 * time.Millisecond)
	c.nodes[2].Proc.Pause(3 * time.Millisecond)
	for i := uint64(11); i <= 20; i++ {
		p := make([]byte, 16)
		abcast.PutMsgID(p, i)
		chk.OnBroadcast(i)
		c.Submit(p, func() { done++ })
	}
	sim.RunFor(2 * time.Millisecond)
	if done != 10 {
		t.Fatalf("commits advanced (%d) while all acceptors paused", done)
	}
	sim.RunFor(10 * time.Millisecond)
	if done != 20 {
		t.Fatalf("pipeline did not recover: %d of 20", done)
	}
}

// TestOversizeRequestRefused: a request that would overrun its log slot into
// the next one is refused where it enters, with both sizes; the largest that
// fits commits intact.
func TestOversizeRequestRefused(t *testing.T) {
	sim, c, chk := newCluster(t, 3, 1)
	fits := make([]byte, slotBytes-slotHdr)
	abcast.PutMsgID(fits, 1)
	fits[len(fits)-1] = 0xee
	chk.OnBroadcast(1)
	var got []byte
	c.OnDeliver = func(r int, _ uint64, payload []byte) {
		if r == 2 {
			got = payload
		}
	}
	c.Submit(fits, nil)
	sim.RunFor(time.Millisecond)
	if !bytes.Equal(got, fits) {
		t.Fatalf("a slot-filling request delivered %d bytes at an acceptor, want its %d intact", len(got), len(fits))
	}

	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"1089-byte request", "1100-byte log slot"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("oversize Submit: recovered %q, want it to name %q", msg, want)
			}
		}
	}()
	c.Submit(make([]byte, len(fits)+1), nil)
	t.Fatal("oversize request accepted")
}
