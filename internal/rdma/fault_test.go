package rdma

import (
	"bytes"
	"testing"
	"time"

	"acuerdo/internal/simnet"
)

// One-way cut semantics: cutting a→b parks a's payloads while b→a traffic
// keeps flowing, and HealOneWay redelivers the parked payloads in order.
func TestPartitionOneWayBlocksOnlyThatDirection(t *testing.T) {
	sim, f := testFabric(2)
	a, b := f.Node(0), f.Node(1)
	mrB := b.RegisterMemory(64)
	mrA := a.RegisterMemory(64)
	qpAB := a.Connect(b)
	qpBA := b.Connect(a)

	f.PartitionOneWay(0, 1)
	if !f.CutOneWay(0, 1) || f.CutOneWay(1, 0) {
		t.Fatal("expected only the 0→1 direction cut")
	}
	if !f.Partitioned(0, 1) {
		t.Fatal("Partitioned must report a one-way cut")
	}
	if _, err := qpAB.Write(mrB, 0, []byte("ab1")); err != nil {
		t.Fatal(err)
	}
	if _, err := qpAB.Write(mrB, 8, []byte("ab2")); err != nil {
		t.Fatal(err)
	}
	if _, err := qpBA.Write(mrA, 0, []byte("ba")); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Millisecond)
	if bytes.Contains(mrB.Buf, []byte("ab1")) {
		t.Fatal("payload crossed a cut direction")
	}
	if !bytes.Equal(mrA.Buf[0:2], []byte("ba")) {
		t.Fatal("reverse direction was blocked by a one-way cut")
	}

	f.HealOneWay(0, 1)
	sim.RunFor(time.Millisecond)
	if !bytes.Equal(mrB.Buf[0:3], []byte("ab1")) || !bytes.Equal(mrB.Buf[8:11], []byte("ab2")) {
		t.Fatalf("parked writes not redelivered after heal: %q", mrB.Buf[:16])
	}
}

// An in-flight write posted before a reverse-direction cut still lands
// (the payload is already on the wire), but its ack travels the cut
// direction: the completion — and the send-queue slot it frees — waits until
// the direction heals.
func TestOneWayCutParksInFlightCompletion(t *testing.T) {
	sim, f, tr := tracedFabric(2)
	f.Params.SendQueueDepth = 1
	a, b := f.Node(0), f.Node(1)
	mrB := b.RegisterMemory(64)
	qp := a.Connect(b)
	qp.SignalEvery = 1

	if _, err := qp.Write(mrB, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Cut the ack path (b→a) while the payload is still in flight a→b.
	f.PartitionOneWay(1, 0)
	sim.RunFor(time.Millisecond)
	if mrB.Buf[0] != 'x' {
		t.Fatal("in-flight payload should land despite the reverse cut")
	}
	if n := len(cqes(t, tr)); n != 0 {
		t.Fatalf("completion crossed the cut ack path: %d KCQE events", n)
	}
	if _, err := qp.Write(mrB, 0, []byte("y")); err != ErrSendQueueFull {
		t.Fatalf("send queue freed without an ack: err = %v", err)
	}

	f.HealOneWay(1, 0)
	healed := sim.Now()
	sim.RunFor(time.Millisecond)
	comps := cqes(t, tr)
	if len(comps) != 1 || comps[0].Node != 0 || comps[0].A != 1 || Status(comps[0].B) != OK {
		t.Fatalf("parked completion not flushed on heal: %+v", comps)
	}
	if got, want := simnet.Time(comps[0].TS), healed.Add(f.Params.LinkLatency); got != want {
		t.Fatalf("parked ack arrived at %v, want one link latency after the heal (%v)", got, want)
	}
	if _, err := qp.Write(mrB, 0, []byte("y")); err != nil {
		t.Fatalf("after the ack: %v", err)
	}
}

// maxRetransmits mirrors the cap simnet.Links charges per message under a
// p=1 loss window.
const maxRetransmits = 16

// A p=1 loss window delays delivery by exactly maxRetransmits retransmit
// rounds per transmission; data is never dropped or reordered.
func TestLossWindowDelaysButNeverDrops(t *testing.T) {
	sim, f := testFabric(2)
	a, b := f.Node(0), f.Node(1)
	mrB := b.RegisterMemory(64)
	qp := a.Connect(b)

	f.SetLossOneWay(0, 1, 1.0)
	if _, err := qp.Write(mrB, 0, []byte("lossy")); err != nil {
		t.Fatal(err)
	}
	penalty := time.Duration(maxRetransmits) * f.Params.RetransmitDelay
	sim.RunFor(penalty - time.Microsecond)
	if bytes.Contains(mrB.Buf, []byte("lossy")) {
		t.Fatal("delivery did not pay the retransmit penalty")
	}
	sim.RunFor(penalty)
	if !bytes.Equal(mrB.Buf[0:5], []byte("lossy")) {
		t.Fatalf("loss window dropped data: %q", mrB.Buf[:8])
	}

	// Clearing the window restores normal latency.
	f.SetLossOneWay(0, 1, 0)
	if _, err := qp.Write(mrB, 8, []byte("clean")); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(10 * time.Microsecond)
	if !bytes.Equal(mrB.Buf[8:13], []byte("clean")) {
		t.Fatal("delivery still delayed after loss window cleared")
	}
}

// A latency spike adds its delta to one direction only and clears cleanly.
func TestLatencySpikeOneWay(t *testing.T) {
	sim, f := testFabric(2)
	a, b := f.Node(0), f.Node(1)
	mrB := b.RegisterMemory(64)
	qp := a.Connect(b)

	spike := 500 * time.Microsecond
	f.SetLatencySpikeOneWay(0, 1, spike)
	if _, err := qp.Write(mrB, 0, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(spike - time.Microsecond)
	if bytes.Contains(mrB.Buf, []byte("slow")) {
		t.Fatal("spiked write arrived before the spike delay")
	}
	sim.RunFor(2 * spike)
	if !bytes.Equal(mrB.Buf[0:4], []byte("slow")) {
		t.Fatal("spiked write never arrived")
	}

	f.SetLatencySpikeOneWay(0, 1, 0)
	if _, err := qp.Write(mrB, 8, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(10 * time.Microsecond)
	if !bytes.Equal(mrB.Buf[8:12], []byte("fast")) {
		t.Fatal("write still delayed after spike cleared")
	}
}

// Parked and direct writes land through one delivery routine: after a heal,
// parked writes arrive in order with exact bytes, a signaled one completes,
// and every delivery record and frame is back on its free list with its
// references dropped. A target that crashed while the writes were parked
// takes the same routine's flush branch.
func TestParkedWritesShareDeliveryRecord(t *testing.T) {
	for _, crashTarget := range []bool{false, true} {
		sim, f, tr := tracedFabric(2)
		a, b := f.Node(0), f.Node(1)
		mr := b.RegisterMemory(2048)
		qp := a.Connect(b)
		qp.SignalEvery = 3 // the third write below asks for the completion
		first, second := bytes.Repeat([]byte{0xA1}, 1012), []byte("tail")

		qp.Write(mr, 0, []byte("direct"))
		sim.RunFor(time.Millisecond)
		f.PartitionOneWay(0, 1)
		qp.Write(mr, 0, first)
		qp.Write(mr, 1012, second)
		sim.RunFor(time.Millisecond)
		if crashTarget {
			b.Crash()
		}
		f.HealOneWay(0, 1)
		sim.RunFor(10 * time.Millisecond)

		comps := cqes(t, tr)
		wantStatus := OK
		if crashTarget {
			wantStatus = Flushed
		}
		if len(comps) != 1 || Status(comps[0].B) != wantStatus || comps[0].A != 3 {
			t.Fatalf("crash=%v: comps = %+v, want one %v for wrid 3", crashTarget, comps, wantStatus)
		}
		landed := bytes.Equal(mr.Buf[:1012], first) && bytes.Equal(mr.Buf[1012:1016], second)
		if landed == crashTarget {
			t.Fatalf("crash=%v: parked writes landed = %v", crashTarget, landed)
		}
		if len(f.deliveryFree) != 2 {
			t.Fatalf("crash=%v: %d delivery records recycled, want 2", crashTarget, len(f.deliveryFree))
		}
		for _, d := range f.deliveryFree {
			if d.qp != nil || d.w.buf != nil || d.w.remote != nil {
				t.Fatalf("crash=%v: recycled delivery still holds %+v", crashTarget, d.w)
			}
		}
		// Both frame classes are back in the pool: posting again allocates no frame.
		if avg := testing.AllocsPerRun(1, func() { f.frames.Put(f.frames.Get(1012)); f.frames.Put(f.frames.Get(4)) }); avg != 0 {
			t.Fatalf("crash=%v: frames not returned to the pool", crashTarget)
		}
	}
}
