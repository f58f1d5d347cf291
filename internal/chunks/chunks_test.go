package chunks

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// e32 has a log entry's shape, a word and a slice (32 B). e40's full-size
// chunk, 6 553 elements, is not a power of two.
type (
	e32 struct {
		a uint64
		b []byte
	}
	e40 [5]uint64
)

// chunkStart returns the index of chunk k's first element.
func chunkStart[T any](l *List[T], k int) int {
	start := 0
	for j := range k {
		start += l.chunkLen(j)
	}
	return start
}

// chunkRule holds every chunk of l to its sizing (the rule, or the length
// SetChunkLen fixed) and l's structure to its invariants: all chunks the
// elements sit in but the last full, none of them wholly below the head but
// the last, every slot below the head or past the end zero (the chunks kept
// past the last in use, and the spare among them, included), the tail the
// last chunk in use at the length the list fills of it, and no chunk the list
// dropped still referenced.
func chunkRule[T comparable](t *testing.T, l *List[T]) {
	t.Helper()
	start := chunkStart(l, l.first)
	var zero T
	if l.used > len(l.chunks) || l.used == 0 && len(l.chunks) > 0 {
		t.Fatalf("%d of %d chunks in use", l.used, len(l.chunks))
	}
	for k, c := range l.chunks {
		want := min(firstChunk<<min(l.first+k, 40), l.chunkLen(1<<40))
		if l.shift != 0 {
			want = 1 << l.shift
		}
		if len(c) != want {
			t.Fatalf("chunk %d holds %d elements, want %d", l.first+k, len(c), want)
		}
		if k < l.used-1 && start+len(c) <= l.head {
			t.Fatalf("chunk %d ends at %d, at or below the head %d, and is kept", l.first+k, start+len(c), l.head)
		}
		// Slots [0, below) of c lie below the head, [past, len(c)) past the end.
		below, past := min(max(l.head-start, 0), len(c)), min(max(l.n-start, 0), len(c))
		if k >= l.used {
			below, past = 0, 0
		}
		for _, dead := range [][]T{c[:below], c[past:]} {
			for off, v := range dead {
				if v != zero {
					t.Fatalf("a slot (chunk %d, %d into a dead run) outside the live range [%d:%d] is not zero", l.first+k, off, l.head, l.n)
				}
			}
		}
		if k == l.used-1 {
			if l.n < start {
				t.Fatalf("list of %d fills chunk %d, which starts at %d", l.n, l.first+k, start)
			}
			if len(l.tail) != l.n-start || cap(l.tail) != len(c) || len(c) > 0 && &l.tail[:1][0] != &c[0] {
				t.Fatalf("tail holds %d of %d, the list fills %d of its last chunk's %d", len(l.tail), cap(l.tail), l.n-start, len(c))
			}
		}
		start += len(c)
	}
	for k, c := range l.chunks[len(l.chunks):cap(l.chunks)] {
		if c != nil {
			t.Fatalf("dropped chunk %d is still referenced", len(l.chunks)+k)
		}
	}
}

// differential runs random Append/Set/Truncate/TrimBelow/At/Chunks/AppendTo
// programs on a List and on a plain slice whose elements below the head are
// zeroed, and requires them to agree at every step. Each program grows the
// list past the geometric chunks into several full-size ones (with chunk > 0,
// through several chunks of that fixed length), cutting it back mostly by a
// short tail and sometimes to just around a chunk boundary, as a log drops an
// uncommitted suffix, and trimming it by a part of its live range, sometimes
// to around a chunk boundary and sometimes all of it, as a log forgets what
// every replica has committed. A cut keeps every chunk, and the appends after
// it refill those before they take a new one.
func differential[T comparable](t *testing.T, chunk int, mk func(uint64) T) {
	full, _, geoLen := shape[T]()
	if chunk > 0 {
		full, geoLen = chunk, 0
	}
	limit := geoLen + 3*full
	const steps = 300
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l List[T]
		if chunk > 0 {
			l.SetChunkLen(chunk)
		}
		var ref []T
		head := 0
		var next uint64
		longest, trims := 0, 0
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(11); {
			case op < 6: // a burst of appends
				held := len(l.chunks)
				for n := rng.Intn(limit/16 + 1); n > 0 && len(ref) < limit; n-- {
					next++
					l.Append(mk(next))
					ref = append(ref, mk(next))
				}
				if len(l.chunks) != max(held, l.used) {
					t.Fatalf("seed %d step %d: appends took %d chunks to fill %d, holding %d", seed, step, len(l.chunks), l.used, held)
				}
			case op < 8: // a cut
				n := len(ref) - rng.Intn(min(len(ref), full/2)+1)
				if rng.Intn(20) == 0 {
					n = rng.Intn(len(ref) + 1)
				}
				if op == 7 && l.used > 1 { // to around the last chunk's start
					n = len(ref) - len(l.tail) + rng.Intn(3) - 1
				}
				n = min(max(n, head), len(ref))
				held := len(l.chunks)
				l.Truncate(n)
				clear(ref[n:])
				ref = ref[:n]
				if len(l.chunks) != held {
					t.Fatalf("seed %d step %d: a cut to %d left %d of %d chunks", seed, step, n, len(l.chunks), held)
				}
			case op == 10: // a trim
				n := head + rng.Intn((len(ref)-head)/2+1)
				switch rng.Intn(10) {
				case 0:
					n = len(ref)
				case 1, 2: // to around the second live chunk's start
					if l.used > 1 {
						n = chunkStart(&l, l.first+1) + rng.Intn(3) - 1
					}
				}
				n = min(max(n, 0), len(ref))
				l.TrimBelow(n)
				if n > head {
					clear(ref[head:n])
					head = n
					trims++
				}
			case op == 8: // a random range, chunk by chunk
				from := head + rng.Intn(len(ref)-head+1)
				to := from + rng.Intn(len(ref)-from+1)
				var got []T
				for c := range l.Chunks(from, to) {
					if len(c) == 0 || cap(c) != len(c) {
						t.Fatalf("seed %d: Chunks(%d, %d) yielded len %d cap %d", seed, from, to, len(c), cap(c))
					}
					got = append(got, c...)
				}
				if !slices.Equal(got, ref[from:to]) {
					t.Fatalf("seed %d step %d: Chunks(%d, %d) differs from the slice", seed, step, from, to)
				}
			case op == 9 && rng.Intn(2) == 0: // a positional write: in place, at the end, or past it
				i := head + rng.Intn(len(ref)-head+4)
				next++
				l.Set(i, mk(next))
				for len(ref) <= i {
					ref = append(ref, mk(0))
				}
				ref[i] = mk(next)
			default:
				if got := l.AppendTo(nil); !slices.Equal(got, ref[head:]) {
					t.Fatalf("seed %d step %d: AppendTo differs from the slice (len %d vs %d)", seed, step, len(got), len(ref)-head)
				}
			}
			if l.Len() != len(ref) || l.Head() != head {
				t.Fatalf("seed %d step %d: live range [%d:%d], slice [%d:%d]", seed, step, l.Head(), l.Len(), head, len(ref))
			}
			for range 64 {
				if len(ref) == head {
					break
				}
				i := head + rng.Intn(len(ref)-head)
				if l.At(i) != ref[i] {
					t.Fatalf("seed %d step %d: At(%d) differs from the slice", seed, step, i)
				}
				if rng.Intn(8) == 0 {
					v := mk(rng.Uint64())
					*l.Ptr(i), ref[i] = v, v
				}
			}
			chunkRule(t, &l)
			longest = max(longest, len(ref))
		}
		if longest <= geoLen+full || trims == 0 {
			t.Fatalf("seed %d: the list reached %d elements, never a second full-size chunk past %d, or was trimmed %d times", seed, longest, geoLen, trims)
		}
	}
}

func TestListDifferential(t *testing.T) {
	t.Run("1B", func(t *testing.T) { differential(t, 0, func(v uint64) byte { return byte(v) }) })
	t.Run("8B", func(t *testing.T) { differential(t, 0, func(v uint64) uint64 { return v }) })
	t.Run("32B", func(t *testing.T) {
		// A comparable stand-in for a log entry: the slice field stays nil,
		// the size is what counts.
		type entry struct{ a, b, c, d uint64 }
		differential(t, 0, func(v uint64) entry { return entry{v, v << 1, v << 2, v << 3} })
	})
	t.Run("40B", func(t *testing.T) { differential(t, 0, func(v uint64) e40 { return e40{v, v, v, v, v} }) })
	// Fixed chunks: Acuerdo's log shape, and a short chunk.
	t.Run("40B/chunk=256", func(t *testing.T) { differential(t, 256, func(v uint64) e40 { return e40{v, v, v, v, v} }) })
	t.Run("8B/chunk=16", func(t *testing.T) { differential(t, 16, func(v uint64) uint64 { return v }) })
}

// TestChunkShape pins the sizing rule where it turns from geometric to fixed.
func TestChunkShape(t *testing.T) {
	check := func(name string, full, geoLen, chunk7 int, want [3]int) {
		if got := [3]int{full, geoLen, chunk7}; got != want {
			t.Errorf("%s: full-size chunk, geometric elements, chunk 7 = %v, want %v", name, got, want)
		}
	}
	full, _, geoLen := shape[uint64]()
	check("8B", full, geoLen, (&List[uint64]{}).chunkLen(7), [3]int{32768, 32704, 8192})
	full, _, geoLen = shape[e32]()
	check("32B", full, geoLen, (&List[e32]{}).chunkLen(7), [3]int{8192, 8128, 8192})
	full, _, geoLen = shape[e40]()
	check("40B", full, geoLen, (&List[e40]{}).chunkLen(7), [3]int{6553, 8128, 6553})
}

// TestListNeverMovesAnElement is the "written once" pin: the address of
// element 0 does not change while the list grows through many chunks.
func TestListNeverMovesAnElement(t *testing.T) {
	var l List[e32]
	l.Append(e32{a: 1})
	p := l.Ptr(0)
	for i := 2; i <= 100_000; i++ {
		l.Append(e32{a: uint64(i)})
		if i&(i-1) == 0 && l.Ptr(0) != p {
			t.Fatalf("element 0 moved after %d appends", i)
		}
	}
	if l.Ptr(0) != p || p.a != 1 {
		t.Fatalf("element 0 moved or changed: %p %p %d", l.Ptr(0), p, p.a)
	}
}

// TestListAppendAllocFree: an Append that lands inside an allocated chunk
// allocates nothing.
func TestListAppendAllocFree(t *testing.T) {
	var l List[e32]
	l.Append(e32{}) // allocates chunk 0: 64 elements
	b := []byte("payload")
	if n := testing.AllocsPerRun(50, func() { l.Append(e32{a: 1, b: b}) }); n != 0 {
		t.Fatalf("Append inside a chunk allocated %.1f objects", n)
	}
}

// TestTrimToFullTail: a trim of every element of a list whose last chunk is
// full drops that chunk too, since the next Append fills another, with fixed
// chunks and at the end of the geometric ones alike.
func TestTrimToFullTail(t *testing.T) {
	for _, chunk := range []int{0, 16} {
		var l List[uint64]
		n := firstChunk + 2*firstChunk // the first two geometric chunks
		if chunk > 0 {
			l.SetChunkLen(chunk)
			n = 2 * chunk
		}
		for i := range n {
			l.Append(uint64(i))
		}
		l.TrimBelow(n)
		chunkRule(t, &l)
		l.Append(1)
		chunkRule(t, &l)
	}
}

// TestListTrimmedAllocFree: a list appended to and trimmed at a fixed window,
// as a volatile log is, reuses the chunk each trim empties once it is past
// the geometric chunks, and allocates nothing however many full-size chunks
// it runs through; it holds the chunks its window spans and the spare. So
// does a list whose chunks are fixed shorter than its window, as Acuerdo's
// log is.
func TestListTrimmedAllocFree(t *testing.T) {
	const window, every = 1000, 7
	for _, chunk := range []int{0, 256} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			full, _, geoLen := shape[e40]()
			var l List[e40]
			if chunk > 0 {
				l.SetChunkLen(chunk)
				full, geoLen = chunk, 0
			}
			step := func() {
				l.Append(e40{uint64(l.Len())})
				if l.Len()%every == 0 {
					l.TrimBelow(max(l.Len()-window, 0))
				}
			}
			for l.Len() < geoLen+2*full+window {
				step()
			}
			if n := testing.AllocsPerRun(5, func() {
				for range full {
					step()
				}
			}); n != 0 {
				t.Fatalf("%v allocations per %d appends at a fixed window, want 0", n, full)
			}
			// The chunks the window spans, and the spare.
			spans := (window+every+full-2)/full + 1
			if len(l.chunks) > spans+1 || l.Len() < geoLen+7*full {
				t.Fatalf("%d elements appended, %d live in %d chunks: want several full chunks run through and <= %d held",
					l.Len(), l.Len()-l.Head(), len(l.chunks), spans+1)
			}
			chunkRule(t, &l)
		})
	}
}

// TestSetChunkLen: a fixed chunk length is a power of two above 1, set before
// the first Append; setting it again to the same length is a no-op.
func TestSetChunkLen(t *testing.T) {
	var l List[uint64]
	l.SetChunkLen(4)
	l.Append(1)
	l.SetChunkLen(4)
	for name, f := range map[string]func(){
		"SetChunkLen(8) on a list holding a chunk": func() { l.SetChunkLen(8) },
		"SetChunkLen(3)": func() { (&List[uint64]{}).SetChunkLen(3) },
		"SetChunkLen(1)": func() { (&List[uint64]{}).SetChunkLen(1) },
		"SetChunkLen(0)": func() { (&List[uint64]{}).SetChunkLen(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
	if l.Len() != 1 || l.At(0) != 1 || len(l.chunks[0]) != 4 {
		t.Fatalf("list of %d in a chunk of %d after the refused calls", l.Len(), len(l.chunks[0]))
	}
}

func TestListOutOfRange(t *testing.T) {
	var l List[uint64]
	for v := range uint64(4) {
		l.Append(v)
	}
	l.TrimBelow(2) // live: [2:4]
	l.TrimBelow(1) // below the head: nothing to do
	for name, f := range map[string]func(){
		"At(4)":         func() { l.At(4) },
		"At(1)":         func() { l.At(1) },
		"At(-1)":        func() { l.At(-1) },
		"Ptr(4)":        func() { l.Ptr(4) },
		"Ptr(1)":        func() { l.Ptr(1) },
		"Truncate(5)":   func() { l.Truncate(5) },
		"Truncate(1)":   func() { l.Truncate(1) },
		"Truncate(-1)":  func() { l.Truncate(-1) },
		"Chunks(2, 5)":  func() { l.Chunks(2, 5) },
		"Chunks(1, 3)":  func() { l.Chunks(1, 3) },
		"Chunks(3, 2)":  func() { l.Chunks(3, 2) },
		"Chunks(-1, 1)": func() { l.Chunks(-1, 1) },
		"TrimBelow(5)":  func() { l.TrimBelow(5) },
		"Set(1, 0)":     func() { l.Set(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
	if l.Head() != 2 || l.Len() != 4 || l.At(2) != 2 || l.At(3) != 3 {
		t.Fatalf("live range [%d:%d] after the refused calls, want [2:4] holding 2, 3", l.Head(), l.Len())
	}
}
