package simnet

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"acuerdo/internal/trace"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Nanosecond, func() { got = append(got, 3) })
	s.After(10*time.Nanosecond, func() { got = append(got, 1) })
	s.After(20*time.Nanosecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v, want 30ns", s.Now())
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", got)
		}
	}
}

// TestAfterPostAfterSameStream pins PostAfter as a synonym of After: the
// two spellings draw from one sequence, so alternating them at equal
// timestamps fires in call order.
func TestAfterPostAfterSameStream(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		sched := s.After
		if i%2 == 1 {
			sched = s.PostAfter
		}
		sched(100, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("After/PostAfter at one timestamp not in call order: %v", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("fired %d events, want 10", len(got))
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.After(100, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(50, func() {})
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	n := 0
	s.After(10, func() { n++ })
	s.After(500, func() { n++ })
	s.RunUntil(100)
	if n != 1 {
		t.Fatalf("ran %d events, want 1", n)
	}
	if s.Now() != 100 {
		t.Fatalf("clock = %v, want 100", s.Now())
	}
	s.RunFor(400 * time.Nanosecond)
	if n != 2 {
		t.Fatalf("ran %d events, want 2", n)
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	n := 0
	s.After(1, func() { n++; s.Stop() })
	s.After(2, func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("Stop did not halt Run: n=%d", n)
	}
	s.Run()
	if n != 2 {
		t.Fatalf("resumed Run did not process remaining event: n=%d", n)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var order []string
	s.After(10, func() {
		order = append(order, "a")
		s.After(5, func() { order = append(order, "c") })
		s.After(0, func() { order = append(order, "b") })
	})
	s.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(42)
		var stamps []Time
		for i := 0; i < 100; i++ {
			d := time.Duration(s.Rand().Intn(1000))
			s.After(d, func() { stamps = append(stamps, s.Now()) })
		}
		s.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClockMonotoneProperty(t *testing.T) {
	// Property: no matter what delays are scheduled, events fire in
	// non-decreasing time order.
	f := func(delays []uint16) bool {
		s := New(7)
		var stamps []Time
		for _, d := range delays {
			s.After(time.Duration(d), func() { stamps = append(stamps, s.Now()) })
		}
		s.Run()
		return sort.SliceIsSorted(stamps, func(i, j int) bool { return stamps[i] < stamps[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProcSerializesWork(t *testing.T) {
	s := New(1)
	p := NewProc(s, 0, "n0")
	var done []Time
	p.Run(100*time.Nanosecond, func() { done = append(done, s.Now()) })
	p.Run(50*time.Nanosecond, func() { done = append(done, s.Now()) })
	s.Run()
	if len(done) != 2 || done[0] != 100 || done[1] != 150 {
		t.Fatalf("completion times = %v, want [100 150]", done)
	}
	if p.BusyTime() != 150*time.Nanosecond {
		t.Fatalf("busy time = %v", p.BusyTime())
	}
}

func TestProcCrashDropsWork(t *testing.T) {
	s := New(1)
	p := NewProc(s, 0, "n0")
	ran := false
	p.Run(100, func() { ran = true })
	s.After(10, func() { p.Crash() })
	s.Run()
	if ran {
		t.Fatal("work ran on crashed proc")
	}
	if p.Alive() {
		t.Fatal("proc alive after crash")
	}
}

func TestProcRecoverDropsStaleWork(t *testing.T) {
	s := New(1)
	p := NewProc(s, 0, "n0")
	var ran []string
	p.Run(100, func() { ran = append(ran, "old") })
	s.After(10, func() {
		p.Crash()
		p.Recover()
		p.Run(5, func() { ran = append(ran, "new") })
	})
	s.Run()
	if len(ran) != 1 || ran[0] != "new" {
		t.Fatalf("ran = %v, want [new]", ran)
	}
}

// TestProcRunNilBooksOnly pins the nil-fn contract: the CPU window is booked
// and the completion time returned exactly as with a callback, but nothing is
// scheduled — a verb post has nothing to observe at post-done time.
func TestProcRunNilBooksOnly(t *testing.T) {
	s, twin := New(1), New(1)
	p, q := NewProc(s, 0, "n0"), NewProc(twin, 0, "n0")
	for _, cost := range []time.Duration{100, 50, 0} {
		got, want := p.Run(cost, nil), q.Run(cost, func() {})
		if got != want || p.BusyUntil() != q.BusyUntil() || p.BusyTime() != q.BusyTime() {
			t.Fatalf("Run(%d, nil) = %v busyUntil %v busyTime %v; with a callback %v %v %v",
				cost, got, p.BusyUntil(), p.BusyTime(), want, q.BusyUntil(), q.BusyTime())
		}
	}
	if s.Pending() != 0 || twin.Pending() != 3 {
		t.Fatalf("pending = %d (nil fn), %d (callbacks); want 0, 3", s.Pending(), twin.Pending())
	}
	s.Run()
	if s.Processed() != 0 {
		t.Fatalf("nil-fn Run dispatched %d events, want 0", s.Processed())
	}
}

// TestProcWorkRecycled pins the procWork life cycle: a record returns to the
// Sim's free list with its references dropped whether or not its callback
// runs (crashed, or crashed and recovered into a new epoch, between submit
// and fire), and it returns before the callback runs, so a callback that
// submits again gets the same record back clean.
func TestProcWorkRecycled(t *testing.T) {
	for _, tc := range []struct {
		name    string
		between func(p *Proc)
		wantRan bool
	}{
		{"live", func(*Proc) {}, true},
		{"crashed", func(p *Proc) { p.Crash() }, false},
		{"recovered", func(p *Proc) { p.Crash(); p.Recover() }, false},
	} {
		s := New(1)
		p := NewProc(s, 0, "n0")
		ran := false
		p.Run(100, func() { ran = true })
		p.RunAt(50, 10, func() { ran = true })
		s.After(10, func() { tc.between(p) })
		s.Run()
		if ran != tc.wantRan {
			t.Fatalf("%s: callback ran = %v, want %v", tc.name, ran, tc.wantRan)
		}
		if len(s.workFree) != 2 {
			t.Fatalf("%s: %d records on the free list, want 2", tc.name, len(s.workFree))
		}
		for _, w := range s.workFree {
			if w.p != nil || w.fn != nil {
				t.Fatalf("%s: recycled record still holds p=%v fn set=%v", tc.name, w.p, w.fn != nil)
			}
		}
	}

	s := New(1)
	p := NewProc(s, 0, "n0")
	var order []int
	p.Run(10, func() {
		order = append(order, 1)
		p.Run(10, func() { order = append(order, 2) })
		p.RunAt(s.Now().Add(100), 10, func() { order = append(order, 3) })
	})
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("re-entrant submissions ran %v, want [1 2 3]", order)
	}
	if len(s.workFree) != 2 {
		t.Fatalf("re-entrant submissions left %d records, want 2 (the first reused)", len(s.workFree))
	}
}

func TestProcPause(t *testing.T) {
	s := New(1)
	p := NewProc(s, 0, "n0")
	p.Pause(1000 * time.Nanosecond)
	var at Time
	p.Run(10, func() { at = s.Now() })
	s.Run()
	if at != 1010 {
		t.Fatalf("completion at %v, want 1010", at)
	}
}

// Charge holds the CPU exactly as Pause does — same completion times, no
// event, no trace — and differs only in counting the time as consumed.
func TestProcCharge(t *testing.T) {
	type outcome struct {
		at, busyUntil Time
		busy          time.Duration
		events        uint64
		fp            uint64
	}
	run := func(hold func(*Proc, time.Duration)) outcome {
		s := New(1)
		tr := trace.New(trace.FingerprintRing)
		s.SetTracer(tr)
		p := NewProc(s, 0, "n0")
		var o outcome
		p.Run(10, func() {
			hold(p, 1000)
			hold(p, 500)
			o.busyUntil = p.BusyUntil()
			p.Run(10, func() { o.at = s.Now() })
		})
		s.Run()
		o.busy, o.events, o.fp = p.BusyTime(), s.Processed(), uint64(tr.Fingerprint())
		return o
	}
	paused, charged := run((*Proc).Pause), run((*Proc).Charge)
	if paused.at != 1520 || paused.busyUntil != 1510 || paused.busy != 20 {
		t.Fatalf("Pause: %+v, want completion at 1520 behind a CPU held to 1510, 20ns consumed", paused)
	}
	charged.busy -= 1500
	if charged != paused {
		t.Fatalf("Charge: %+v (less the 1500ns charged), Pause: %+v: want the same schedule and trace", charged, paused)
	}
}

func TestProcDesched(t *testing.T) {
	s := New(1)
	p := NewProc(s, 0, "n0")
	p.SetDesched(&DeschedConfig{
		Interval: Constant{100 * time.Nanosecond},
		Pause:    Constant{1000 * time.Nanosecond},
	})
	// Work submitted after the first deschedule point must absorb the pause.
	s.After(200, func() {
		p.Run(10, nil)
	})
	s.Run()
	// First deschedule at ~100ns lasts 1000ns -> earliest start 1100 (>=200).
	if p.BusyUntil() < 1100 {
		t.Fatalf("busyUntil = %v, want >= 1100 (pause absorbed)", p.BusyUntil())
	}
}

func TestPollLoop(t *testing.T) {
	s := New(1)
	p := NewProc(s, 0, "n0")
	n := 0
	p.PollLoop(100*time.Nanosecond, 10*time.Nanosecond, func() { n++ })
	s.RunUntil(1000)
	if n < 8 || n > 11 {
		t.Fatalf("poll iterations = %d, want ~9-10", n)
	}
}

func TestPollLoopStopsOnCrash(t *testing.T) {
	s := New(1)
	p := NewProc(s, 0, "n0")
	n := 0
	p.PollLoop(100*time.Nanosecond, 0, func() { n++ })
	s.After(500, func() { p.Crash() })
	s.RunUntil(2000)
	if n > 6 {
		t.Fatalf("poll loop survived crash: %d iterations", n)
	}
}

func TestDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		d    Dist
		mean time.Duration
	}{
		{"constant", Constant{5 * time.Microsecond}, 5 * time.Microsecond},
		{"exp", Exponential{MeanD: 5 * time.Microsecond}, 5 * time.Microsecond},
		// exp(Mu + Sigma²/2) nanoseconds.
		{"lognormal", LogNormal{Mu: 8.5, Sigma: 0.5}, time.Duration(math.Exp(8.5 + 0.5*0.5/2))},
	}
	for _, c := range cases {
		var sum time.Duration
		const n = 20000
		for i := 0; i < n; i++ {
			v := c.d.Sample(rng)
			if v < 0 {
				t.Fatalf("%s: negative sample %v", c.name, v)
			}
			sum += v
		}
		mean := sum / n
		ratio := float64(mean) / float64(c.mean)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s: empirical mean %v vs expected %v (ratio %.2f)", c.name, mean, c.mean, ratio)
		}
	}
}

func TestExponentialCap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Exponential{MeanD: time.Millisecond, Cap: 2 * time.Millisecond}
	for i := 0; i < 10000; i++ {
		if v := d.Sample(rng); v > 2*time.Millisecond {
			t.Fatalf("sample %v exceeds cap", v)
		}
	}
}

func TestPendingCount(t *testing.T) {
	s := New(1)
	s.After(10, func() {})
	s.After(20, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	// Events scheduled from inside callbacks are counted too, and running
	// the simulation dry drains the counter to zero.
	s.After(30, func() { s.After(5, func() {}) })
	if s.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("pending after drain = %d, want 0", s.Pending())
	}
}
