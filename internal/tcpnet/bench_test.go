package tcpnet

import (
	"testing"
	"time"

	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// BenchmarkTCPSend measures one send-deliver cycle over the simulated
// kernel-TCP transport: frame checkout from the net's free-list, the
// send/kernel/wire/wakeup event chain, handler dispatch, and frame recycle.
func BenchmarkTCPSend(b *testing.B) {
	sim := simnet.New(1)
	n := New(sim, DefaultParams())
	src := n.AddNode("src")
	dst := n.AddNode("dst")
	delivered := 0
	conn := src.Connect(dst, func(m []byte) { delivered++ })
	msg := make([]byte, 64)

	// Prime the frame free-list and the event heap.
	conn.Send(msg)
	sim.RunFor(time.Millisecond)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.Send(msg)
		sim.RunFor(500 * time.Microsecond)
	}
	b.StopTimer()
	if delivered != b.N+1 {
		b.Fatalf("delivered %d messages, want %d", delivered, b.N+1)
	}
}

// TestSendAllocFree pins a send, syscall through handler return, at zero
// allocations and two simulator events (receiver wakeup, recv completion),
// traced or not: the send books CPU without scheduling anything and the
// receive is a record recycled on the Net. The handler replies, so the record
// it runs from must already be reusable.
func TestSendAllocFree(t *testing.T) {
	for _, traced := range []bool{false, true} {
		sim := simnet.New(1)
		if traced {
			sim.SetTracer(trace.New(trace.FingerprintRing))
		}
		n := New(sim, DefaultParams())
		src, dst := n.AddNode("src"), n.AddNode("dst")
		var got [2]int // bytes seen by dst, by src
		back := dst.Connect(src, func(m []byte) { got[1] += len(m) })
		reply := make([]byte, 8)
		conn := src.Connect(dst, func(m []byte) {
			got[0] += len(m)
			back.Send(reply)
		})
		msg := make([]byte, 1000)
		cycle := func() {
			conn.Send(msg)
			sim.RunFor(500 * time.Microsecond)
		}
		cycle()
		before := sim.Processed()
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Fatalf("traced=%v: send+reply allocates %.1f objects, want 0", traced, avg)
		}
		if ev := sim.Processed() - before; ev != 4*201 {
			t.Fatalf("traced=%v: %d events for %d sends, want two each", traced, ev, 2*201)
		}
		if got != [2]int{202 * 1000, 202 * 8} {
			t.Fatalf("traced=%v: delivered %v bytes", traced, got)
		}
		if len(n.recvFree) != 1 || n.recvFree[0].c != nil || n.recvFree[0].buf != nil {
			t.Fatalf("traced=%v: free list %+v, want the one record, reused by the reply and clean", traced, n.recvFree)
		}
	}
}
