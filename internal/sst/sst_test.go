package sst

import (
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"

	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
)

// u64Codec is a trivial fixed-size codec for tests.
type u64Codec struct{}

func (u64Codec) Size() int                      { return 8 }
func (u64Codec) Encode(dst []byte, v uint64)    { binary.LittleEndian.PutUint64(dst, v) }
func (u64Codec) Decode(dst *uint64, src []byte) { *dst = binary.LittleEndian.Uint64(src) }

// vec is a row holding a slice, as a Derecho row does; vecCodec decodes into
// the slice the destination row already has.
type vec struct{ v []uint64 }

type vecCodec struct{ n int }

func (c vecCodec) Size() int { return 8 * c.n }
func (c vecCodec) Encode(dst []byte, r vec) {
	for i, x := range r.v {
		binary.LittleEndian.PutUint64(dst[8*i:], x)
	}
}
func (c vecCodec) Decode(dst *vec, src []byte) {
	if len(dst.v) != c.n {
		dst.v = make([]uint64, c.n)
	}
	for i := range dst.v {
		dst.v[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
}

func build(n int) (*simnet.Sim, []*Table[uint64], *rdma.Fabric) {
	sim := simnet.New(1)
	p := rdma.DefaultParams()
	p.LinkJitter = nil
	f := rdma.NewFabric(sim, p)
	nodes := make([]*rdma.Node, n)
	for i := range nodes {
		nodes[i] = f.AddNode("n")
	}
	return sim, Build[uint64](nodes, u64Codec{}), f
}

func TestSetGetLocal(t *testing.T) {
	_, tabs, _ := build(3)
	tabs[1].Set(42)
	if got := tabs[1].Get(1); got != 42 {
		t.Fatalf("Get(1) = %d, want 42", got)
	}
	// Not pushed: peers must not see it.
	if got := tabs[0].Get(1); got != 0 {
		t.Fatalf("peer saw unpushed row: %d", got)
	}
}

func TestPushMine(t *testing.T) {
	sim, tabs, _ := build(3)
	tabs[2].Set(7)
	tabs[2].PushMine()
	sim.RunFor(time.Millisecond)
	for i := 0; i < 3; i++ {
		if got := tabs[i].Get(2); got != 7 {
			t.Fatalf("node %d sees row 2 = %d, want 7", i, got)
		}
	}
}

func TestPushMineTo(t *testing.T) {
	sim, tabs, _ := build(3)
	tabs[1].Set(9)
	tabs[1].PushMineTo(0)
	sim.RunFor(time.Millisecond)
	if got := tabs[0].Get(1); got != 9 {
		t.Fatalf("target sees %d, want 9", got)
	}
	if got := tabs[2].Get(1); got != 0 {
		t.Fatalf("non-target sees %d, want 0", got)
	}
}

func TestLastWriteWins(t *testing.T) {
	sim, tabs, _ := build(2)
	for v := uint64(1); v <= 100; v++ {
		tabs[0].Set(v)
		tabs[0].PushMine()
	}
	sim.RunFor(time.Millisecond)
	if got := tabs[1].Get(0); got != 100 {
		t.Fatalf("final value = %d, want 100", got)
	}
}

func TestSnapshot(t *testing.T) {
	sim, tabs, _ := build(3)
	for i, tab := range tabs {
		tab.Set(uint64(i + 10))
		tab.PushMine()
	}
	sim.RunFor(time.Millisecond)
	snap := tabs[0].Snapshot(nil)
	for i, v := range snap {
		if v != uint64(i+10) {
			t.Fatalf("snapshot[%d] = %d, want %d", i, v, i+10)
		}
	}
}

// TestSnapshotAllocFree: a Snapshot into the slice the last one returned
// allocates nothing, for rows that hold a slice too, and still reads the
// rows' current values.
func TestSnapshotAllocFree(t *testing.T) {
	sim := simnet.New(1)
	f := rdma.NewFabric(sim, rdma.DefaultParams())
	nodes := []*rdma.Node{f.AddNode("a"), f.AddNode("b"), f.AddNode("c")}
	tabs := Build[vec](nodes, vecCodec{n: 3})
	rows := tabs[0].Snapshot(nil)
	if n := testing.AllocsPerRun(100, func() { rows = tabs[0].Snapshot(rows) }); n != 0 {
		t.Fatalf("Snapshot into a kept slice allocated %.1f objects", n)
	}
	tabs[1].Set(vec{v: []uint64{4, 5, 6}})
	tabs[1].PushMine()
	sim.RunFor(time.Millisecond)
	rows = tabs[0].Snapshot(rows)
	if got := rows[1].v; got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("row 1 = %v after the push, want [4 5 6]", got)
	}
}

func TestRowsDoNotOverlap(t *testing.T) {
	sim, tabs, _ := build(5)
	for i, tab := range tabs {
		tab.Set(uint64(0xDEADBEEF00 + i))
		tab.PushMine()
	}
	sim.RunFor(time.Millisecond)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if got := tabs[i].Get(j); got != uint64(0xDEADBEEF00+j) {
				t.Fatalf("tabs[%d].Get(%d) = %x", i, j, got)
			}
		}
	}
}

func TestPushToCrashedPeerIsSafe(t *testing.T) {
	sim, tabs, f := build(3)
	f.Node(1).Crash()
	tabs[0].Set(5)
	for i := 0; i < 10000; i++ {
		tabs[0].PushMine() // must not panic even as the dead QP wedges
	}
	sim.RunFor(10 * time.Millisecond)
	if got := tabs[2].Get(0); got != 5 {
		t.Fatalf("live peer missed push: %d", got)
	}
}

func TestMonotonicConvergenceProperty(t *testing.T) {
	// Property: after pushing a monotonically increasing sequence and
	// quiescing, every replica agrees on the final value (last write wins
	// regardless of the sequence pushed).
	check := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		sim, tabs, _ := build(3)
		var last uint64
		for i, v := range vals {
			last = uint64(i)<<8 | uint64(v)
			tabs[0].Set(last)
			tabs[0].PushMine()
		}
		sim.RunFor(10 * time.Millisecond)
		return tabs[1].Get(0) == last && tabs[2].Get(0) == last
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
