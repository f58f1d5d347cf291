package chunks

import (
	"bytes"
	"math/rand"
	"testing"
)

// claim is one Own the arena model holds: the copy, its chunk and the bytes it
// was owned with.
type claim struct {
	p    []byte
	id   uint32
	want []byte
}

// auditArena checks a's books against the claims held: every chunk counts
// exactly the claims into it, every chunk with none is empty and either open
// or on the free list, once, and an empty chunk larger than the chunk size
// has been given back.
func auditArena(t *testing.T, a *Arena, held []claim, where string) {
	t.Helper()
	live := make([]int, len(a.chunks)+1)
	for _, c := range held {
		live[c.id]++
	}
	onFree := make([]bool, len(a.chunks)+1)
	for _, id := range a.free {
		if id == 0 || int(id) > len(a.chunks) || onFree[id] || id == a.open {
			t.Fatalf("%s: free list %v (open %d, %d chunks) names a chunk twice, the open one or none", where, a.free, a.open, len(a.chunks))
		}
		onFree[id] = true
	}
	for i, c := range a.chunks {
		id := uint32(i + 1)
		if c.live != live[id] {
			t.Fatalf("%s: chunk %d counts %d claims, %d are held", where, id, c.live, live[id])
		}
		if c.live > 0 {
			if onFree[id] {
				t.Fatalf("%s: chunk %d holds %d claims and is on the free list", where, id, c.live)
			}
			continue
		}
		if len(c.buf) != 0 || cap(c.buf) > ArenaChunkSize {
			t.Fatalf("%s: empty chunk %d still has %d bytes in use of %d", where, id, len(c.buf), cap(c.buf))
		}
		if !onFree[id] && id != a.open {
			t.Fatalf("%s: empty chunk %d is neither open nor free", where, id)
		}
	}
}

// TestArenaModel runs random Own/Release programs — payloads from empty to
// larger than a chunk, released oldest first, newest first or at random, as a
// trimmed log, a truncated tail and a dropped request give them back — and
// requires every copy to be capped at its length and, while it is held, to
// read the bytes it was owned with (checked every 16 steps and at the end),
// and the books to balance after every step. A chunk refilled
// under a live claim, a miscounted chunk or a lost free-list entry shows up as
// a copy that changed or a book that does not balance.
func TestArenaModel(t *testing.T) {
	src := make([]byte, 4*ArenaChunkSize)
	rand.New(rand.NewSource(0)).Read(src)
	buf := make([]byte, 2*ArenaChunkSize)
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var a Arena
		var held []claim
		for step := 0; step < 2000; step++ {
			switch k := rng.Intn(100); {
			case k < 55 || len(held) == 0:
				var n int
				switch k := rng.Intn(100); {
				case k < 5:
					n = 0
				case k < 8:
					n = ArenaChunkSize + rng.Intn(ArenaChunkSize) // oversize
				case k < 40:
					n = 4000 + rng.Intn(8000) // a few per chunk
				default:
					n = 1 + rng.Intn(1200)
				}
				p := buf[:n]
				copy(p, src[rng.Intn(len(src)-n+1):])
				got, id := a.Own(p)
				if !bytes.Equal(got, p) || cap(got) != len(got) || (id == 0) != (n == 0) {
					t.Fatalf("seed %d step %d: Own of %d bytes returned %d bytes, cap %d, chunk %d", seed, step, n, len(got), cap(got), id)
				}
				held = append(held, claim{got, id, bytes.Clone(p)})
				clear(p) // the caller's buffer is reused at once
			case k < 80: // oldest first
				a.Release(held[0].id)
				held = held[1:]
			case k < 90: // newest first
				a.Release(held[len(held)-1].id)
				held = held[:len(held)-1]
			default:
				i := rng.Intn(len(held))
				a.Release(held[i].id)
				held = append(held[:i], held[i+1:]...)
			}
			if step%16 == 0 { // a changed copy stays changed while it is held
				for _, c := range held {
					if !bytes.Equal(c.p, c.want) {
						t.Fatalf("seed %d step %d: a held copy in chunk %d changed", seed, step, c.id)
					}
				}
			}
			auditArena(t, &a, held, "step")
		}
		for _, c := range held {
			if !bytes.Equal(c.p, c.want) {
				t.Fatalf("seed %d: a held copy in chunk %d changed", seed, c.id)
			}
			a.Release(c.id)
		}
		auditArena(t, &a, nil, "after releasing everything")
		if len(a.free)+1 < len(a.chunks) {
			t.Fatalf("seed %d: %d of %d chunks free after every claim went back", seed, len(a.free), len(a.chunks))
		}
	}
}

// TestArenaSteadyStateAllocFree: claims owned and released oldest first at a
// fixed window, across many chunks' worth of bytes, cycle through the chunks
// the arena already has and allocate nothing.
func TestArenaSteadyStateAllocFree(t *testing.T) {
	const window = 200
	var a Arena
	p := make([]byte, 1000)
	var ids []uint32
	step := func() {
		_, id := a.Own(p)
		ids = append(ids, id)
		if len(ids) > window {
			a.Release(ids[0])
			ids = ids[:copy(ids, ids[1:])]
		}
	}
	for range 4 * window {
		step()
	}
	chunks := len(a.chunks)
	if n := testing.AllocsPerRun(20, func() {
		for range window {
			step()
		}
	}); n != 0 || len(a.chunks) != chunks {
		t.Fatalf("%v allocations per %d claims at a fixed window, %d chunks grew to %d: want 0 and none", n, window, chunks, len(a.chunks))
	}
}
