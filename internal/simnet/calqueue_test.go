package simnet

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Reference implementation: the pre-calendar-queue binary-heap event core,
// kept as an executable specification: (at, seq) ordering and the RunUntil
// horizon — the semantics the calendar queue must reproduce observably, and
// the baseline BenchmarkEventDispatchHeapRef measures the speedup against.
// ---------------------------------------------------------------------------

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap struct {
	events []*refEvent
	free   []*refEvent
	seq    uint64
	now    Time
}

func newRefHeap() *refHeap { return &refHeap{} }

func (h *refHeap) Len() int { return len(h.events) }
func (h *refHeap) Less(i, j int) bool {
	a, b := h.events[i], h.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
func (h *refHeap) Swap(i, j int) { h.events[i], h.events[j] = h.events[j], h.events[i] }
func (h *refHeap) Push(x any)    { h.events = append(h.events, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := h.events
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	h.events = old[:n-1]
	return ev
}

func (h *refHeap) schedule(at Time, fn func()) {
	h.seq++
	var ev *refEvent
	if n := len(h.free); n > 0 {
		ev = h.free[n-1]
		h.free = h.free[:n-1]
		ev.at, ev.seq, ev.fn = at, h.seq, fn
	} else {
		ev = &refEvent{at: at, seq: h.seq, fn: fn}
	}
	heap.Push(h, ev)
}

func (h *refHeap) step() bool {
	if len(h.events) == 0 {
		return false
	}
	ev := heap.Pop(h).(*refEvent)
	h.now = ev.at
	fn := ev.fn
	ev.fn = nil
	h.free = append(h.free, ev)
	fn()
	return true
}

func (h *refHeap) runUntil(t Time) {
	for len(h.events) > 0 && h.events[0].at <= t {
		h.step()
	}
	if t > h.now {
		h.now = t
	}
}

func (h *refHeap) pending() int { return len(h.events) }

// TestRunUntilHorizonOverflow pins the RunUntil horizon contract — no event
// with at > t runs and the clock lands exactly on t — with the pending
// event in the overflow ladder (beyond the wheel span), where the check is
// the ladder's cached minimum rather than a bucket head.
func TestRunUntilHorizonOverflow(t *testing.T) {
	s := New(1)
	far := Time(3 * wheelSpan)
	fired := false
	s.At(100, func() {})
	s.At(far, func() { fired = true })
	s.RunUntil(far - 1)
	if fired || s.Now() != far-1 {
		t.Fatalf("fired=%v now=%d, want false, %d", fired, s.Now(), far-1)
	}
	s.RunUntil(far)
	if !fired || s.Now() != far {
		t.Fatalf("fired=%v now=%d, want true, %d", fired, s.Now(), far)
	}
}

// ---------------------------------------------------------------------------
// Calendar-queue mechanics: overflow, jump, rotation.
// ---------------------------------------------------------------------------

// TestCalQueueOverflowOrder schedules events far beyond the wheel span in
// scrambled order and checks they fire in timestamp order through the
// jump/redistribute machinery.
func TestCalQueueOverflowOrder(t *testing.T) {
	s := New(1)
	var got []int
	at := []Time{5 * wheelSpan, wheelSpan + 7, 3 * wheelSpan, 2*wheelSpan + 100, wheelSpan}
	for i, a := range at {
		i := i
		s.At(a, func() { got = append(got, i) })
	}
	s.Run()
	want := []int{4, 1, 3, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if s.Now() != 5*wheelSpan {
		t.Fatalf("clock = %d, want %d", s.Now(), 5*wheelSpan)
	}
}

// TestCalQueueRotation walks events across many full wheel rotations so
// redistribute runs repeatedly, interleaving near and far schedules from
// inside callbacks (the steady-state protocol pattern).
func TestCalQueueRotation(t *testing.T) {
	s := New(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < 40 {
			// Half a rotation ahead: alternates between wheel and
			// overflow filing depending on the wheel's position.
			s.After(time.Duration(wheelSpan/2), tick)
		}
	}
	s.After(time.Duration(wheelSpan/2), tick)
	s.Run()
	if fired != 40 {
		t.Fatalf("fired %d ticks, want 40", fired)
	}
	if want := Time(40) * (wheelSpan / 2); s.Now() != want {
		t.Fatalf("clock = %d, want %d", s.Now(), want)
	}
}

// TestCalQueueSameTimestampFIFO pins the (at, seq) tie-break: events posted
// for the same instant run in posting order, including ones inserted into
// the currently dispatching bucket from a callback.
func TestCalQueueSameTimestampFIFO(t *testing.T) {
	s := New(1)
	var got []int
	at := Time(1000)
	for i := 0; i < 8; i++ {
		i := i
		s.At(at, func() {
			got = append(got, i)
			if i == 0 {
				// Same timestamp, scheduled mid-dispatch: must run
				// after every already-queued tie, in posting order.
				s.At(at, func() { got = append(got, 100) })
				s.At(at, func() { got = append(got, 101) })
			}
		})
	}
	s.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 100, 101}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestCalQueueSparseGap fires a lone event far ahead within the wheel span
// (the occupancy-bitmap skip path) and one beyond it (the jump path).
func TestCalQueueSparseGap(t *testing.T) {
	s := New(1)
	var order []int
	s.At(wheelSpan-bucketWidth, func() { order = append(order, 0) })
	s.At(wheelSpan*7+3, func() { order = append(order, 1) })
	if !s.Step() || !s.Step() {
		t.Fatal("Step returned false with events pending")
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("fire order %v, want [0 1]", order)
	}
	if s.Step() {
		t.Fatal("Step returned true on an empty queue")
	}
}

// ---------------------------------------------------------------------------
// Differential property test: calendar queue vs reference heap.
// ---------------------------------------------------------------------------

// TestCalQueueDifferential drives the calendar queue and the reference
// binary heap side by side through a seeded random schedule/step/run-until
// workload and asserts identical observable behavior: the same events fire
// in the same order, and the clocks and pending counts never diverge.
// Schedule distances mix bucket ties, in-wheel spreads, rotation crossings,
// and deep overflow so every queue path (sorted insert, bitmap skip, jump,
// redistribute) is exercised; bursts of 33–64 events at one instant make
// buckets that quicksort orders. After every operation it also checks what
// holds only because nothing is cancelled: every slot is free or pending,
// and every filed ref — in a bucket's list, in the unconsumed part of the
// current bucket's run, or in the overflow ladder — is a pending event.
func TestCalQueueDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		h := newRefHeap()

		var gotLog, wantLog []int
		nextID := 0

		dist := func() time.Duration {
			switch rng.Intn(4) {
			case 0: // bucket-tie range
				return time.Duration(rng.Intn(int(bucketWidth) * 2))
			case 1: // in-wheel
				return time.Duration(rng.Int63n(int64(wheelSpan)))
			case 2: // rotation crossing
				return time.Duration(int64(wheelSpan) + rng.Int63n(int64(wheelSpan)))
			default: // deep overflow
				return time.Duration(rng.Int63n(10 * int64(wheelSpan)))
			}
		}

		schedule := func(d time.Duration) {
			id := nextID
			nextID++
			s.After(d, func() { gotLog = append(gotLog, id) })
			h.schedule(h.now.Add(d), func() { wantLog = append(wantLog, id) })
		}
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(100); {
			case r < 58: // schedule
				schedule(dist())
			case r < 60: // a burst at one instant: a bucket above 32 events
				d := dist()
				for n := 33 + rng.Intn(32); n > 0; n-- {
					schedule(d)
				}
			case r < 88: // step
				a, b := s.Step(), h.step()
				if a != b {
					t.Fatalf("seed %d op %d: Step = %v, reference = %v", seed, op, a, b)
				}
			default: // run a bounded window
				d := time.Duration(rng.Int63n(3 * int64(wheelSpan)))
				if rng.Intn(2) == 0 {
					// A short one: its horizon falls inside a bucket
					// that holds events on both sides of it.
					d = time.Duration(rng.Intn(int(bucketWidth) * 2))
				}
				s.RunFor(d)
				h.runUntil(h.now.Add(d))
			}
			if s.Pending() != h.pending() {
				t.Fatalf("seed %d op %d: Pending = %d, reference = %d", seed, op, s.Pending(), h.pending())
			}
			if s.Now() != h.now {
				t.Fatalf("seed %d op %d: now = %d, reference = %d", seed, op, s.Now(), h.now)
			}
			q := &s.q
			if len(q.slots) != len(q.free)+s.Pending() {
				t.Fatalf("seed %d op %d: %d slots != %d free + %d pending", seed, op, len(q.slots), len(q.free), s.Pending())
			}
			if !q.sorted && len(q.run) != 0 {
				t.Fatalf("seed %d op %d: run holds %d refs before dispatch entered its bucket", seed, op, len(q.run))
			}
			filed := len(q.overflow) + len(q.run) - q.pos
			for b, tail := range q.tails {
				if tail == 0 {
					continue
				}
				if q.occ[b>>6]&(1<<uint(b&63)) == 0 {
					t.Fatalf("seed %d op %d: bucket %d holds a list but its occupancy bit is clear", seed, op, b)
				}
				// Walk the circular list from its first slot back to
				// its tail; a walk longer than Pending() is a cycle
				// that misses the tail.
				n := 0
				for i := q.slots[tail-1].next; ; i = q.slots[i].next {
					if n++; n > s.Pending() {
						t.Fatalf("seed %d op %d: bucket %d's list runs past %d pending events", seed, op, b, s.Pending())
					}
					if got := int(q.slots[i].at>>bucketShift) & bucketMask; got != b {
						t.Fatalf("seed %d op %d: slot %d filed in bucket %d belongs in %d", seed, op, i, b, got)
					}
					if i == tail-1 {
						break
					}
				}
				filed += n
			}
			if filed != s.Pending() {
				t.Fatalf("seed %d op %d: %d refs filed, %d events pending (stale ref)", seed, op, filed, s.Pending())
			}
		}
		// Drain both and compare the complete fire logs.
		s.Run()
		for h.step() {
		}
		if len(gotLog) != len(wantLog) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotLog), len(wantLog))
		}
		for i := range gotLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d: fire order diverges at %d: id %d vs %d", seed, i, gotLog[i], wantLog[i])
			}
		}
		if s.Now() != h.now || s.Pending() != 0 {
			t.Fatalf("seed %d: final now=%d pending=%d, reference now=%d", seed, s.Now(), s.Pending(), h.now)
		}
	}
}
