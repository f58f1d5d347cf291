package disk

import (
	"testing"
	"time"

	"acuerdo/internal/simnet"
)

// walPump is a GroupCommit whose flush group-commits *ls, counting flushes.
// The owner swaps *ls for the reopened store on restart, as the protocols do.
func walPump(ls **LogStore, flushes *int) GroupCommit {
	return NewGroupCommit(func(done func()) {
		*flushes++
		(*ls).Flush(done)
	})
}

func TestGroupCommitBatches(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	flushes, ls := 0, NewLogStore(dev, "wal")
	g := walPump(&ls, &flushes)
	var order []string
	var firedAt []simnet.Time
	note := func(name string) func() {
		return func() {
			order = append(order, name)
			firedAt = append(firedAt, sim.Now())
		}
	}
	g.Enqueue(note("a")) // starts flush 1 alone
	g.Enqueue(note("b")) // queues behind it
	g.Enqueue(func() {
		note("c")()
		g.Enqueue(note("e")) // queued while batch 2 is being released: rides flush 3
	})
	g.Enqueue(note("d"))
	if flushes != 1 {
		t.Fatalf("%d flushes in flight with one running, want 1", flushes)
	}
	sim.RunFor(time.Millisecond)
	if got := len(order); got != 5 || flushes != 3 {
		t.Fatalf("released %v over %d flushes, want 5 callers over 3", order, flushes)
	}
	for i, want := range []string{"a", "b", "c", "d", "e"} {
		if order[i] != want {
			t.Fatalf("release order %v", order)
		}
	}
	// b, c and d are one batch: released together, after a and before e.
	if firedAt[1] != firedAt[2] || firedAt[2] != firedAt[3] || firedAt[0] >= firedAt[1] || firedAt[3] >= firedAt[4] {
		t.Fatalf("release times %v: want a, then {b,c,d} together, then e", firedAt)
	}
	g.Enqueue(note("f"))
	if flushes != 4 {
		t.Fatal("an idle pump did not start a flush on Enqueue")
	}
}

func TestGroupCommitCrashDropsBatchResetRearms(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	flushes, released, ls := 0, 0, NewLogStore(dev, "wal")
	g := walPump(&ls, &flushes)
	g.Enqueue(func() { released++ })
	g.Enqueue(func() { released++ })
	dev.Crash(sim.Rand()) // power cut with flush 1 in flight and one caller queued
	sim.RunFor(time.Millisecond)
	if released != 0 {
		t.Fatalf("%d callers released across a power cut", released)
	}
	// Without Reset the pump still believes a flush is in flight.
	g.Enqueue(func() { released++ })
	sim.RunFor(time.Millisecond)
	if released != 0 || flushes != 1 {
		t.Fatalf("pump restarted itself after a crash (released %d, flushes %d)", released, flushes)
	}
	g.Reset()
	ls, _ = Reopen(dev, "wal")
	g.Enqueue(func() { released++ })
	sim.RunFor(time.Millisecond)
	if released != 1 || flushes != 2 {
		t.Fatalf("after Reset: released %d over %d flushes, want only the new caller over one more flush", released, flushes)
	}
}

// TestGroupCommitAllocFreePerCaller pins the pump's host cost at nothing per
// caller and nothing per batch: the two queues swap at each flush and the
// completion handed to flush is bound once, so a warmed-up cycle allocates
// no closure and grows no queue.
func TestGroupCommitAllocFreePerCaller(t *testing.T) {
	sim := newSim(1)
	proc := simnet.NewProc(sim, 0, "replica")
	g := NewGroupCommit(func(done func()) { proc.Run(time.Microsecond, done) })
	released := 0
	done := func() { released++ }
	cycle := func(callers int) func() {
		return func() {
			g.Enqueue(done) // a batch of its own; the rest share the next one
			for i := 0; i < callers; i++ {
				g.Enqueue(done)
			}
			sim.RunFor(time.Millisecond)
		}
	}
	cycle(64)()
	if avg := testing.AllocsPerRun(100, cycle(64)); avg != 0 {
		t.Fatalf("65 callers in two batches allocate %.1f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, cycle(1)); avg != 0 {
		t.Fatalf("2 callers in two batches allocate %.1f objects, want 0", avg)
	}
	// AllocsPerRun calls its function once more than it measures.
	if want := 65 + 101*65 + 101*2; released != want {
		t.Fatalf("released %d callers, want %d", released, want)
	}
}
