package chunks

import (
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

// chunkRule holds every chunk of l to the sizing rule and l's structure to its
// invariants: all chunks but the last full, no chunk kept past the one the
// next Append fills, every slot past the end zero.
func chunkRule[T comparable](t *testing.T, l *List[T]) {
	t.Helper()
	full, _, _ := shape[T]()
	start := 0
	var zero T
	for k, c := range l.chunks {
		if want := min(firstChunk<<min(k, 40), full); len(c) != want {
			t.Fatalf("chunk %d holds %d elements, want %d", k, len(c), want)
		}
		for off := max(l.n-start, 0); off < len(c); off++ {
			if c[off] != zero {
				t.Fatalf("slot %d (chunk %d) past the end %d is not zero", start+off, k, l.n)
			}
		}
		start += len(c)
	}
	for k, c := range l.chunks[len(l.chunks):cap(l.chunks)] {
		if c != nil {
			t.Fatalf("dropped chunk %d is still referenced", len(l.chunks)+k)
		}
	}
	if len(l.chunks) > 0 {
		last := start - len(l.chunks[len(l.chunks)-1])
		if l.n < last {
			t.Fatalf("list of %d keeps chunk %d, which starts at %d", l.n, len(l.chunks)-1, last)
		}
		if l.n-last != len(l.tail) {
			t.Fatalf("tail holds %d, the list fills %d of its last chunk", len(l.tail), l.n-last)
		}
	}
}

// differential runs random Append/Truncate/At/Chunks/AppendTo programs on a
// List and on a plain slice and requires them to agree at every step. Each
// program grows the list past the geometric chunks into several full-size
// ones, cutting it back mostly by a short tail and sometimes to just around a
// chunk boundary, as a log drops an uncommitted suffix.
func differential[T comparable](t *testing.T, mk func(uint64) T) {
	full, _, geoLen := shape[T]()
	limit := geoLen + 3*full
	const steps = 300
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l List[T]
		var ref []T
		var next uint64
		longest := 0
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // a burst of appends
				for n := rng.Intn(limit/16 + 1); n > 0 && len(ref) < limit; n-- {
					next++
					l.Append(mk(next))
					ref = append(ref, mk(next))
				}
			case op < 8: // a cut
				n := len(ref) - rng.Intn(min(len(ref), full/2)+1)
				if rng.Intn(20) == 0 {
					n = rng.Intn(len(ref) + 1)
				}
				if op == 7 && len(l.chunks) > 1 { // to around the last chunk's start
					n = len(ref) - len(l.tail) + rng.Intn(3) - 1
					n = min(max(n, 0), len(ref))
				}
				l.Truncate(n)
				clear(ref[n:])
				ref = ref[:n]
			case op == 8: // a random range, chunk by chunk
				from := rng.Intn(len(ref) + 1)
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
			default:
				if got := l.AppendTo(nil); !slices.Equal(got, ref) {
					t.Fatalf("seed %d step %d: AppendTo differs from the slice (len %d vs %d)", seed, step, len(got), len(ref))
				}
			}
			if l.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len %d, slice %d", seed, step, l.Len(), len(ref))
			}
			for range 64 {
				if len(ref) == 0 {
					break
				}
				i := rng.Intn(len(ref))
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
		if longest <= geoLen+full {
			t.Fatalf("seed %d: the list reached %d elements, never a second full-size chunk past %d", seed, longest, geoLen)
		}
	}
}

func TestListDifferential(t *testing.T) {
	t.Run("1B", func(t *testing.T) { differential(t, func(v uint64) byte { return byte(v) }) })
	t.Run("8B", func(t *testing.T) { differential(t, func(v uint64) uint64 { return v }) })
	t.Run("32B", func(t *testing.T) {
		// A comparable stand-in for a log entry: the slice field stays nil,
		// the size is what counts.
		type entry struct{ a, b, c, d uint64 }
		differential(t, func(v uint64) entry { return entry{v, v << 1, v << 2, v << 3} })
	})
	t.Run("40B", func(t *testing.T) { differential(t, func(v uint64) e40 { return e40{v, v, v, v, v} }) })
}

// TestChunkShape pins the sizing rule where it turns from geometric to fixed.
func TestChunkShape(t *testing.T) {
	check := func(name string, full, geoLen, chunk7 int, want [3]int) {
		if got := [3]int{full, geoLen, chunk7}; got != want {
			t.Errorf("%s: full-size chunk, geometric elements, chunk 7 = %v, want %v", name, got, want)
		}
	}
	full, _, geoLen := shape[uint64]()
	check("8B", full, geoLen, chunkLen[uint64](7), [3]int{32768, 32704, 8192})
	full, _, geoLen = shape[e32]()
	check("32B", full, geoLen, chunkLen[e32](7), [3]int{8192, 8128, 8192})
	full, _, geoLen = shape[e40]()
	check("40B", full, geoLen, chunkLen[e40](7), [3]int{6553, 8128, 6553})
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

func TestListOutOfRange(t *testing.T) {
	var l List[uint64]
	l.Append(1)
	for name, f := range map[string]func(){
		"At(1)":         func() { l.At(1) },
		"At(-1)":        func() { l.At(-1) },
		"Ptr(1)":        func() { l.Ptr(1) },
		"Truncate(2)":   func() { l.Truncate(2) },
		"Chunks(0, 2)":  func() { l.Chunks(0, 2) },
		"Chunks(1, 0)":  func() { l.Chunks(1, 0) },
		"Truncate(-1)":  func() { l.Truncate(-1) },
		"Chunks(-1, 1)": func() { l.Chunks(-1, 1) },
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
}
