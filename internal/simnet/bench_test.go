package simnet

import (
	"runtime"
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
// allocations per dispatched event: once the slot slab and its free list
// are primed, At + Step must not touch the heap. This is the invariant the
// slot free-list and the intrusive bucket lists exist for; a regression
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

// TestCalQueueCrowdedBucketsAllocFree pins the event core at zero
// allocations once its first rotation is over, however crowded a bucket
// gets: a bucket is a list threaded through the slots, so no bucket owns
// storage that grows the first time it holds more events than before. Each
// rotation fills one bucket the previous rotations never used with a burst
// of 5–64 events at one instant: four of them filed a rotation ahead,
// through the overflow ladder, the rest directly, and one more filed by the
// burst's first event into the run dispatch is consuming. Bursts above 32
// events are ordered by quicksort (TestCalQueueDifferential checks that
// order against the reference heap). The first burst is the largest and
// every rotation starts with the same four events pending, so the slab, the
// free list, the ladder and the sorted run reach their peak in the first
// rotation and the event that closes it.
func TestCalQueueCrowdedBucketsAllocFree(t *testing.T) {
	const rotations, ahead = 80, 4
	burst := func(r int) int {
		if r == 0 {
			return 64
		}
		return 5 + r*29%60
	}
	// The burst's bucket moves by 2731 per rotation modulo the prime 8191,
	// so no two of these rotations share one, and none is bucket 0, where
	// the event that starts each rotation sits.
	instant := func(r int) Time {
		b := 1 + r*2731%(numBuckets-1)
		return Time(r)*wheelSpan + Time(b)<<bucketShift + Time(r%int(bucketWidth))
	}
	s := New(1)
	fired, want := 0, 0
	member := func() { fired++ }
	first := func() {
		member()
		s.At(s.Now(), member)
	}
	fileAhead := func(r int) {
		for i := 0; i < ahead; i++ {
			s.At(instant(r), member)
		}
	}
	// fileRotation files the rest of rotation r's burst, the ahead part of
	// the next one, and the event that starts the next rotation.
	r := 0
	var rotate func()
	fileRotation := func() {
		s.At(instant(r), first)
		for i := ahead + 1; i < burst(r); i++ {
			s.At(instant(r), member)
		}
		want += burst(r) + 1
		fileAhead(r + 1)
		s.At(Time(r+1)*wheelSpan, rotate)
	}
	rotate = func() {
		r++
		fileRotation()
	}
	fileAhead(0)
	fileRotation()
	s.RunUntil(wheelSpan) // the first rotation and the event that closes it
	before, after := memSpan(func() { s.RunUntil(rotations*wheelSpan - 1) })
	if objs := after.Mallocs - before.Mallocs; objs != 0 {
		t.Fatalf("%d rotations of crowded buckets allocated %d objects after the first, want 0", rotations-1, objs)
	}
	if r != rotations-1 || fired != want {
		t.Fatalf("reached rotation %d of %d, fired %d of %d events", r, rotations-1, fired, want)
	}
}

// TestNewSimFootprint bounds what one simnet.New allocates. A sweep builds
// one Sim per point, and a wheel that owns per-bucket storage (the slice
// headers and arena this core used to carve, 334.5 KB) would come back
// through here first.
func TestNewSimFootprint(t *testing.T) {
	var s *Sim
	before, after := memSpan(func() { s = New(1) })
	runtime.KeepAlive(s)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("simnet.New allocated %d bytes, want <= %d", got, 64<<10)
	} else {
		t.Logf("simnet.New allocated %d bytes", got)
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

// memSpan reads the heap counters around f as testing.AllocsPerRun does, on
// one P, and after a collection, so no background sweep or other goroutine
// lands a stray allocation inside the span.
func memSpan(f func()) (before, after runtime.MemStats) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return before, after
}
