// Package chunks holds append-only history in chunks that are written once:
// a sequence that is appended to, read (or updated in place) by index and cut
// back at its tail, such as a protocol's log, a run's latency samples, the
// checker's agreed order or the tracer's per-message stage timestamps.
//
// A slice grown by append copies everything it holds each time it outgrows its
// array, by about 1.25× once it is large, so every element it ends up holding
// was written about five times and the garbage left behind is as large as the
// slice itself. A List never copies or regrows a chunk: chunk k holds
// min(64<<k, 256 KiB / sizeof(T)) elements, so a short list starts small and a
// long one is a run of fixed 256 KiB chunks. n elements occupy at most n plus
// one chunk. A list allocates once per chunk: for 32-byte elements that is
// fewer times than append regrows a slice up to about 300 000 elements, and
// once per 8 192 elements after that.
package chunks

import (
	"fmt"
	"iter"
	"math/bits"
	"unsafe"
)

const (
	// firstChunk is the element count of chunk 0; each chunk doubles the last
	// until a chunk reaches maxChunkBytes.
	firstChunk = 64
	// maxChunkBytes caps a chunk's size, and so the slack of a long list.
	maxChunkBytes = 256 << 10
)

// List is an append-only sequence of T. The zero value is an empty list.
// Copying a List shares its chunks, as copying a slice shares its array.
type List[T any] struct {
	chunks [][]T // every chunk at its full length; all but the last are full
	tail   []T   // the last chunk, at the length the list fills of it
	n      int
}

// shape returns the list's chunk geometry: the element count of a full-size
// chunk, the number of geometric chunks before the first full-size one, and
// the element count of those geometric chunks together.
func shape[T any]() (full, geo, geoLen int) {
	var zero T
	full = max(maxChunkBytes/max(int(unsafe.Sizeof(zero)), 1), 1)
	// The smallest geo with firstChunk<<geo >= full.
	geo = bits.Len(uint((full - 1) / firstChunk))
	return full, geo, firstChunk * (1<<geo - 1)
}

// chunkLen returns the element count of chunk k.
func chunkLen[T any](k int) int {
	full, geo, _ := shape[T]()
	if k >= geo {
		return full
	}
	return firstChunk << k
}

// locate returns the chunk holding position i and i's offset in it.
func (l *List[T]) locate(i int) (k, off int) {
	full, geo, geoLen := shape[T]()
	if i < geoLen {
		k = bits.Len(uint(i/firstChunk+1)) - 1
		return k, i - firstChunk*(1<<k-1)
	}
	i -= geoLen
	return geo + i/full, i % full
}

// Len returns the number of elements.
func (l *List[T]) Len() int { return l.n }

// Append adds v at the end. It allocates only when the last chunk is full.
func (l *List[T]) Append(v T) {
	if len(l.tail) == cap(l.tail) {
		c := make([]T, chunkLen[T](len(l.chunks)))
		l.chunks = append(l.chunks, c)
		l.tail = c[:0]
	}
	l.tail = append(l.tail, v)
	l.n++
}

// At returns element i.
func (l *List[T]) At(i int) T { return *l.Ptr(i) }

// Ptr returns the address of element i, for a caller that updates it in
// place. A chunk never moves, so the address holds element i until a
// Truncate drops it.
func (l *List[T]) Ptr(i int) *T {
	if uint(i) >= uint(l.n) {
		panic(fmt.Sprintf("chunks: index %d out of range [0:%d]", i, l.n))
	}
	k, off := l.locate(i)
	return &l.chunks[k][off]
}

// Truncate cuts the list to its first n elements. It zeroes the elements it
// drops, so nothing they point to stays reachable, and gives back every chunk
// past the one the next Append fills.
func (l *List[T]) Truncate(n int) {
	if n < 0 || n > l.n {
		panic(fmt.Sprintf("chunks: truncate to %d of %d", n, l.n))
	}
	if n == l.n {
		return
	}
	k, off := l.locate(n)
	if k == len(l.chunks)-1 {
		clear(l.tail[off:])
	} else {
		clear(l.chunks[k][off:])
		clear(l.chunks[k+1:])
		l.chunks = l.chunks[:k+1]
	}
	l.tail = l.chunks[k][:off]
	l.n = n
}

// Chunks yields elements [from, to) as consecutive slices, one per chunk they
// span. The slices alias the list and are capped at their length; they hold
// their values until a Truncate drops them.
func (l *List[T]) Chunks(from, to int) iter.Seq[[]T] {
	if from < 0 || to > l.n || from > to {
		panic(fmt.Sprintf("chunks: range [%d:%d] of %d", from, to, l.n))
	}
	return func(yield func([]T) bool) {
		for i := from; i < to; {
			k, off := l.locate(i)
			end := off + min(len(l.chunks[k])-off, to-i)
			if !yield(l.chunks[k][off:end:end]) {
				return
			}
			i += end - off
		}
	}
}

// AppendTo appends every element to dst, in order, and returns the result.
func (l *List[T]) AppendTo(dst []T) []T {
	for c := range l.Chunks(0, l.n) {
		dst = append(dst, c...)
	}
	return dst
}
