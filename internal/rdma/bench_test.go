package rdma

import (
	"testing"
	"time"

	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// BenchmarkWRPost measures the post-write-deliver cycle of one unsignaled
// RDMA write: verb post, wire-frame checkout from the fabric's free-list,
// delivery into the remote MR, and frame recycle. Allocation count is the
// headline number — the wire frame itself must come from the free-list.
func BenchmarkWRPost(b *testing.B) {
	sim := simnet.New(1)
	f := NewFabric(sim, DefaultParams())
	src := f.AddNode("src")
	dst := f.AddNode("dst")
	qp := src.Connect(dst)
	mr := dst.RegisterMemory(4096)
	data := make([]byte, 64)

	// Prime the frame free-list and the event heap.
	if _, err := qp.Write(mr, 0, data); err != nil {
		b.Fatal(err)
	}
	sim.RunFor(25 * time.Microsecond)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Write(mr, 0, data); err != nil {
			b.Fatal(err)
		}
		sim.RunFor(25 * time.Microsecond)
	}
}

// BenchmarkWRPostSignaled signals every write, so each cycle includes the ack
// and the completion event that frees the send queue.
func BenchmarkWRPostSignaled(b *testing.B) {
	sim := simnet.New(1)
	f := NewFabric(sim, DefaultParams())
	src := f.AddNode("src")
	dst := f.AddNode("dst")
	qp := src.Connect(dst)
	qp.SignalEvery = 1
	mr := dst.RegisterMemory(4096)
	data := make([]byte, 64)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Write(mr, 0, data); err != nil {
			b.Fatal(err)
		}
		sim.RunFor(25 * time.Microsecond)
		if qp.outstanding != 0 {
			b.Fatalf("%d writes unacknowledged after the completion, want 0", qp.outstanding)
		}
	}
}

// TestWritePostAllocFree pins an unsignaled WRITE, post through landing, at
// zero allocations and one simulator event, traced or not, one part or a
// gather list: the post books CPU without scheduling anything, the frame comes
// from the size-class pool, and the delivery is a record recycled on the
// Fabric.
func TestWritePostAllocFree(t *testing.T) {
	for _, traced := range []bool{false, true} {
		sim := simnet.New(1)
		if traced {
			sim.SetTracer(trace.New(trace.FingerprintRing))
		}
		f := NewFabric(sim, DefaultParams())
		src, dst := f.AddNode("src"), f.AddNode("dst")
		qp := src.Connect(dst)
		qp.SignalEvery = 0 // never signaled: the paper's steady state between signals
		mr := dst.RegisterMemory(4096)
		small, large := make([]byte, 64), make([]byte, 1012)
		cycle := func() {
			for _, data := range [][]byte{small, large, small} {
				if _, err := qp.Write(mr, 0, data); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := qp.Write(mr, 0, small[:12], small[:13], large[:987]); err != nil {
				t.Fatal(err)
			}
			sim.RunFor(25 * time.Microsecond)
		}
		cycle()
		before := sim.Processed()
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Fatalf("traced=%v: four WRITEs allocate %.1f objects, want 0", traced, avg)
		}
		if got := sim.Processed() - before; got != 4*201 {
			t.Fatalf("traced=%v: %d events for %d WRITEs, want one each", traced, got, 4*201)
		}
	}
}
