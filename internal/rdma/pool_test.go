package rdma_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/bench"
	"acuerdo/internal/digest"
	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// nonZero returns the offset of b's first non-zero byte, or -1.
func nonZero(b []byte) int {
	for i, c := range b {
		if c != 0 {
			return i
		}
	}
	return -1
}

// TestReleaseClearsWhatLanded: a region's high-water mark follows the writes
// that land in it, Release clears exactly that extent and pools the array, and
// the next fabric's registrations of the size get the arrays back in
// registration order, all zero. A region nothing landed in is recycled
// without a store.
func TestReleaseClearsWhatLanded(t *testing.T) {
	rdma.DrainPool()
	const size = 1<<16 + 40
	sim := simnet.New(1)
	f := rdma.NewFabric(sim, rdma.DefaultParams())
	a, b := f.AddNode("a"), f.AddNode("b")
	qp := a.Connect(b)
	mr, idle := b.RegisterMemory(size), b.RegisterMemory(size)
	ones := bytes.Repeat([]byte{0xff}, 8)
	for _, w := range []struct{ off, hi int }{
		{4096, 4104}, {0, 4104}, {70, 4104}, {4100, 4108}, {size - 8, size},
	} {
		if _, err := qp.Write(mr, w.off, ones); err != nil {
			t.Fatal(err)
		}
		sim.RunFor(time.Millisecond)
		if mr.Hi() != w.hi {
			t.Fatalf("after a write at %d: hi = %d, want %d", w.off, mr.Hi(), w.hi)
		}
	}
	if idle.Hi() != 0 {
		t.Fatalf("untouched region: hi = %d", idle.Hi())
	}
	f.Release()

	g := rdma.NewFabric(simnet.New(1), rdma.DefaultParams())
	n := g.AddNode("n")
	for _, old := range []*rdma.MR{mr, idle} { // first registered gets the first back
		got := n.RegisterMemory(size)
		if &got.Buf[0] != &old.Buf[0] {
			t.Fatal("a released array was not the one handed back")
		}
		if off := nonZero(got.Buf); off >= 0 || got.Hi() != 0 {
			t.Fatalf("recycled region: byte %d is %#x, hi = %d", off, got.Buf[max(off, 0)], got.Hi())
		}
	}
	if fresh := n.RegisterMemory(size); &fresh.Buf[0] == &mr.Buf[0] || &fresh.Buf[0] == &idle.Buf[0] {
		t.Fatal("one array handed out twice")
	}
}

// world is one booted system on a fabric the test holds, so that it can look
// at the fabric's regions and release them itself.
type world struct {
	sim       *simnet.Sim
	fabric    *rdma.Fabric
	inst      *bench.Instance
	tracer    *trace.Tracer
	committed int
}

// newWorld boots kind with three replicas and starts a closed-loop client
// whose payloads are 0xff after the message id, so the last byte a record
// lands in a ring is never zero.
func newWorld(t *testing.T, kind bench.Kind, seed int64, window, size int) *world {
	w := &world{sim: simnet.New(seed), tracer: trace.New(1 << 12)}
	w.fabric = rdma.NewFabric(w.sim, rdma.DefaultParams())
	w.inst = bench.NewInstanceOn(w.sim, kind, 3, bench.Options{SharedFabric: w.fabric, Tracer: w.tracer})
	if !abcast.AwaitReady(w.sim, w.inst.Sys.Ready) {
		t.Errorf("%s never became ready", kind)
		return w
	}
	abcast.Loop(w.sim, w.inst.Sys, window, func(id uint64, next func()) {
		p := bytes.Repeat([]byte{0xff}, size)
		abcast.PutMsgID(p, id)
		w.inst.Sys.Submit(p, func() {
			w.committed++
			next()
		})
	})
	return w
}

// bounce crashes a follower under load and restarts it (for Acuerdo the
// restart runs ClientLink.Reconnect), then lets the run settle.
func (w *world) bounce() {
	g := w.inst.Group
	victim := (g.LeaderIdx() + 1) % g.Size()
	w.sim.RunFor(time.Millisecond)
	g.Crash(victim)
	w.sim.RunFor(time.Millisecond)
	g.Restart(victim)
	w.sim.RunFor(2 * time.Millisecond)
}

// TestPoolHoldsOnlyZeroBytes is the pool's invariant, end to end: for each of
// the seven systems, two loaded worlds with a crash and a restart run and are
// released on two goroutines (the pool's mutex is the one cross-goroutine
// lock in the tree), and then every pooled array is scanned.
func TestPoolHoldsOnlyZeroBytes(t *testing.T) {
	for _, kind := range bench.AllKinds {
		rdma.DrainPool()
		var wg sync.WaitGroup
		for seed := int64(1); seed <= 2; seed++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := newWorld(t, kind, seed, 16, 200)
				w.bounce()
				if w.committed == 0 {
					t.Errorf("%s seed %d: nothing committed", kind, seed)
				}
				w.fabric.Release()
			}()
		}
		wg.Wait()
		for _, b := range rdma.DrainPool() {
			if off := nonZero(b); off >= 0 {
				t.Errorf("%s: a pooled %d-byte array holds %#x at offset %d", kind, len(b), b[off], off)
				break
			}
		}
	}
}

// TestPoolKeepsRoles: Acuerdo worlds of one shape built one after another
// give every region the array its own ordinal (its place among the world's
// regions of that size) held in the world before, so the arrays anything
// ever landed in are one world's written set. A pool that hands arrays to
// other ordinals (pushing in registration order reverses them every world)
// makes the written set grow. Two more worlds then run at once on two
// goroutines, where the race detector sees the pool contended: roles may
// interleave there, but the pool grows to two worlds' arrays at most.
func TestPoolKeepsRoles(t *testing.T) {
	rdma.DrainPool()
	type role struct{ size, ord int }
	var mu sync.Mutex
	held := map[*byte]role{}    // every array seen -> the ordinal that held it last
	written := map[*byte]bool{} // arrays that ever had a byte land in them
	run := func(world string, keepRoles bool) (regions, wrote int) {
		w := newWorld(t, bench.Acuerdo, 1, 16, 200)
		w.sim.RunFor(2 * time.Millisecond)
		if w.committed == 0 {
			t.Errorf("%s: nothing committed", world)
		}
		mu.Lock()
		ords := map[int]int{}
		for _, mr := range w.fabric.Pooled() {
			r := role{len(mr.Buf), ords[len(mr.Buf)]}
			ords[r.size]++
			p := &mr.Buf[0]
			if was, ok := held[p]; keepRoles && ok && was != r {
				t.Errorf("%s: the %d-byte region of ordinal %d got the array of ordinal %d", world, r.size, r.ord, was.ord)
			}
			held[p] = r
			if mr.Hi() > 0 {
				written[p] = true
				wrote++
			}
		}
		regions = len(w.fabric.Pooled())
		mu.Unlock()
		w.fabric.Release()
		return regions, wrote
	}

	regions, wrote := run("world 1", true)
	if wrote == 0 || wrote == regions {
		t.Fatalf("one world wrote %d of its %d pooled regions: the test needs some written and some idle", wrote, regions)
	}
	for _, world := range []string{"world 2", "world 3"} {
		run(world, true)
		if len(held) != regions {
			t.Errorf("%s: %d distinct arrays held, want one world's %d", world, len(held), regions)
		}
	}
	if len(written) != wrote {
		t.Errorf("three worlds in a row wrote %d distinct arrays, want one world's %d", len(written), wrote)
	}

	var wg sync.WaitGroup
	for _, world := range []string{"worker A", "worker B"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(world, false)
		}()
	}
	wg.Wait()
	if len(held) > 2*regions {
		t.Errorf("two workers held %d distinct arrays, more than two worlds' %d", len(held), 2*regions)
	}
	rdma.DrainPool()
}

// TestPoolGrowsOnlyToPeakDemand: the pool of a size holds no more arrays than
// the process had regions of that size live at once, whatever the shapes of
// the worlds that registered them. Two fabrics register three regions each,
// interleaved, in one goroutine; after both are released a fabric of another
// shape registers six and must get all six arrays back and allocate none. A
// pool that only returns an array to the ordinal that held it would allocate
// three more here.
func TestPoolGrowsOnlyToPeakDemand(t *testing.T) {
	rdma.DrainPool()
	const size = 1 << 16
	const n = 3
	fabric := func() (*rdma.Fabric, *rdma.Node) {
		f := rdma.NewFabric(simnet.New(1), rdma.DefaultParams())
		return f, f.AddNode("n")
	}
	fa, a := fabric()
	fb, b := fabric()
	pooled := map[*byte]bool{}
	for range n {
		pooled[&a.RegisterMemory(size).Buf[0]] = true
		pooled[&b.RegisterMemory(size).Buf[0]] = true
	}
	fa.Release()
	fb.Release()

	fc, c := fabric()
	for i := range 2 * n {
		if p := &c.RegisterMemory(size).Buf[0]; !pooled[p] {
			t.Errorf("region %d of %d: a fresh array while pooled ones were free", i, 2*n)
		} else {
			delete(pooled, p)
		}
	}
	fc.Release()
	if got := len(rdma.DrainPool()); got != 2*n {
		t.Errorf("the pool holds %d arrays, want the %d ever live at once", got, 2*n)
	}
}

// TestRecycledWorldReplaysFresh: a world built on arrays a heavier world
// wrote and released runs exactly as it does on fresh memory — same commits,
// same event trace — and never holds a byte it did not write.
func TestRecycledWorldReplaysFresh(t *testing.T) {
	for _, kind := range []bench.Kind{bench.Acuerdo, bench.DerechoLeader, bench.Apus} {
		runB := func() (int, digest.Sum, uint64) {
			b := newWorld(t, kind, 7, 4, 40)
			b.sim.RunFor(time.Millisecond)
			for i, mr := range b.fabric.Pooled() {
				if off := nonZero(mr.Buf[mr.Hi():]); off >= 0 {
					t.Errorf("%s: region %d holds a byte at offset %d that this world never wrote", kind, i, mr.Hi()+off)
					break
				}
			}
			b.fabric.Release()
			return b.committed, b.tracer.Fingerprint(), b.tracer.Emitted()
		}
		rdma.DrainPool()
		committed, fp, events := runB()
		rdma.DrainPool()
		a := newWorld(t, kind, 3, 32, 1000)
		a.bounce()
		a.fabric.Release()
		if c, f, e := runB(); c != committed || f != fp || e != events {
			t.Errorf("%s on recycled memory: %d commits, trace %s over %d events; on fresh memory %d, %s, %d",
				kind, c, f.Hex(), e, committed, fp.Hex(), events)
		}
		if committed == 0 || a.committed <= committed {
			t.Errorf("%s: world A committed %d, world B %d: A must be the heavier", kind, a.committed, committed)
		}
	}
}
