package simnet

import (
	"testing"
	"time"

	"acuerdo/internal/trace"
)

// BenchmarkEventDispatch measures the steady-state schedule-and-run cost of
// one event (At + Step, no tracer) at several pending-set sizes. The population matters: a binary heap pays
// O(log n) pointer-chasing sifts per op, so its single-event best case
// hides the cost the dense sweep profiles actually pay, while the calendar
// queue is O(1) regardless. The committed pre-calendar-queue numbers on
// this benchmark were 26ns (pending=1), 165ns (pending=1k), and 275ns
// (pending=16k) per op.
func BenchmarkEventDispatch(b *testing.B) {
	for _, bc := range benchPopulations {
		b.Run(bc.name, func(b *testing.B) {
			s := New(1)
			n := 0
			fn := func() { n++ }
			primePopulation(bc.pending, bc.horizon, func(at Time) { s.At(at, fn) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.At(s.Now().Add(bc.horizon), fn)
				s.Step()
			}
		})
	}
}

// benchPopulations are the pending-set profiles both the calendar queue
// and the reference heap are measured on. pending=1 with a 1µs horizon is
// the historical benchmark shape (the heap's best case); the dense cases
// with a 2ms horizon are the profile a loaded sweep actually runs.
var benchPopulations = []struct {
	name    string
	pending int
	horizon time.Duration
}{
	{"pending=1", 1, time.Microsecond},
	{"pending=1k", 1 << 10, 2 * time.Millisecond},
	{"pending=4k", 1 << 12, 2 * time.Millisecond},
	{"pending=16k", 1 << 14, 2 * time.Millisecond},
}

// primePopulation spreads pending events over the horizon so the pending
// count holds steady throughout a measured post-one/dispatch-one loop.
func primePopulation(pending int, horizon time.Duration, post func(at Time)) {
	for i := 0; i < pending; i++ {
		d := time.Duration(1+i) * horizon / time.Duration(pending)
		post(Time(0).Add(d))
	}
}

// BenchmarkEventDispatchHeapRef runs the identical workload on the
// reference binary heap from the differential test (the pre-calendar-queue
// event core), keeping the speedup claim reproducible in-tree: compare
// against BenchmarkEventDispatch at the same population.
func BenchmarkEventDispatchHeapRef(b *testing.B) {
	for _, bc := range benchPopulations {
		b.Run(bc.name, func(b *testing.B) {
			h := newRefHeap()
			n := 0
			fn := func() { n++ }
			primePopulation(bc.pending, bc.horizon, func(at Time) { h.schedule(at, fn) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.schedule(h.now.Add(bc.horizon), fn)
				h.step()
			}
		})
	}
}

// BenchmarkEventDispatchTraced is the same fast path with a tracer
// installed: every dispatch emits a KSimEvent (ring store + fingerprint
// fold), which must stay allocation-free too.
func BenchmarkEventDispatchTraced(b *testing.B) {
	s := New(1)
	s.SetTracer(trace.New(trace.FingerprintRing))
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now().Add(time.Microsecond), fn)
		s.Step()
	}
}

// TestEventDispatchAllocFree pins the nil-tracer fast path at zero
// allocations per dispatched event: once the free list and the bucket
// arena are primed, At + Step must not touch the heap. This is the
// invariant the slot free-list and bucket arena exist for; a regression
// here taxes every one of the millions of events a sweep processes.
func TestEventDispatchAllocFree(t *testing.T) {
	s := New(1)
	n := 0
	fn := func() { n++ }
	s.At(s.Now().Add(time.Microsecond), fn)
	s.Step()
	avg := testing.AllocsPerRun(200, func() {
		s.At(s.Now().Add(time.Microsecond), fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("steady-state event dispatch allocates %.1f objects/op, want 0", avg)
	}
}

// TestAfterAllocFree pins the other spelling of the one scheduling call:
// After returns no handle, so After + Step allocates nothing either.
func TestAfterAllocFree(t *testing.T) {
	s := New(1)
	n := 0
	fn := func() { n++ }
	s.After(time.Microsecond, fn)
	s.Step()
	avg := testing.AllocsPerRun(200, func() {
		s.After(time.Microsecond, fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("After + Step allocates %.1f objects/op, want 0", avg)
	}
}

// TestEventDispatchAllocFreeTraced pins the traced dispatch path at zero
// allocations as well: the KSimEvent emit writes a preallocated ring slot
// and folds the fingerprint, nothing else.
func TestEventDispatchAllocFreeTraced(t *testing.T) {
	s := New(1)
	s.SetTracer(trace.New(trace.FingerprintRing))
	n := 0
	fn := func() { n++ }
	s.At(s.Now().Add(time.Microsecond), fn)
	s.Step()
	avg := testing.AllocsPerRun(200, func() {
		s.At(s.Now().Add(time.Microsecond), fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("traced event dispatch allocates %.1f objects/op, want 0", avg)
	}
}

// TestProcRunAllocFree pins Proc.Run and RunAt with a callback at zero
// allocations per submit-and-fire, traced or not: the state a per-call
// closure used to capture lives in a procWork record recycled on the Sim.
func TestProcRunAllocFree(t *testing.T) {
	for _, traced := range []bool{false, true} {
		s := New(1)
		if traced {
			s.SetTracer(trace.New(trace.FingerprintRing))
		}
		p := NewProc(s, 0, "n0")
		n := 0
		fn := func() { n++ }
		cycle := func() {
			p.Run(100*time.Nanosecond, fn)
			s.Step()
			p.RunAt(s.Now().Add(time.Microsecond), 100*time.Nanosecond, fn)
			s.Step() // the trigger, which submits the Run
			s.Step() // its completion
		}
		cycle()
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Fatalf("traced=%v: Run+RunAt allocate %.1f objects/cycle, want 0", traced, avg)
		}
		if n != 2*202 {
			t.Fatalf("traced=%v: callbacks ran %d times, want %d", traced, n, 2*202)
		}
	}
}

// TestFramePoolAllocFree pins exact size-class reuse: a large frame is found
// again no matter how many small ones were returned after it (the scanned
// free-list this pool replaced looked at the newest eight only).
func TestFramePoolAllocFree(t *testing.T) {
	for _, tc := range []struct{ n, wantCap int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {128, 128}, {129, 256}, {1012, 1024},
	} {
		var p FramePool
		b := p.Get(tc.n)
		if len(b) != tc.n || cap(b) != tc.wantCap {
			t.Fatalf("Get(%d): len %d cap %d, want cap %d", tc.n, len(b), cap(b), tc.wantCap)
		}
	}
	var p FramePool
	cycle := func() {
		big := p.Get(1012)
		var small [9][]byte
		for i := range small {
			small[i] = p.Get(40)
		}
		p.Put(big)
		for _, b := range small {
			p.Put(b)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("mixed-size frame reuse allocates %.1f objects/cycle, want 0", avg)
	}
	p.Put(make([]byte, 100)) // not a class capacity: must not be handed out
	if b := p.Get(128); cap(b) != 128 {
		t.Fatalf("foreign frame reused: cap %d", cap(b))
	}
}
