// Package chunks holds history in chunks that are written once: a sequence
// that is appended to, read (or updated in place) by index, cut back at its
// tail and, where nothing reads it any more, forgotten below a head, such as a
// protocol's log, a run's latency samples, the checker's agreed order or the
// tracer's per-message stage timestamps; and the bytes such a history's
// elements point to, in an Arena of shared chunks.
//
// A slice grown by append copies everything it holds each time it outgrows its
// array, by about 1.25× once it is large, so every element it ends up holding
// was written about five times and the garbage left behind is as large as the
// slice itself. A List never copies or regrows a chunk: chunk k holds
// min(64<<k, 256 KiB / sizeof(T)) elements, so a short list starts small and a
// long one is a run of fixed 256 KiB chunks, unless its caller fixes every
// chunk at a size that fits its window (SetChunkLen). n elements occupy at
// most n plus one chunk. A list allocates once per chunk: for 32-byte elements
// that is fewer times than append regrows a slice up to about 300 000
// elements, and once per 8 192 elements after that. A list trimmed as it grows
// keeps the chunks its live elements span and one spare, so its memory follows
// its window, not its history; a list cut back keeps the chunks it cut, for
// the appends that refill them.
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

// List is a sequence of T whose elements keep their index for life: Append
// adds one at the end, Truncate cuts the tail and TrimBelow forgets a prefix,
// and the live elements are those at [Head, Len). The zero value is an empty
// list. Copying a List shares its chunks, as copying a slice shares its array.
type List[T any] struct {
	chunks  [][]T // chunks[k] is chunk first+k at its full length; all below used-1 are full
	used    int   // chunks[:used] hold the elements; those past are zero, for the next appends
	tail    []T   // chunks[used-1], at the length the list fills of it
	first   int   // the number, in the sizing rule, of chunks[0]
	head, n int   // the live elements are [head, n)
	shift   uint  // every chunk holds 1<<shift elements; 0: the sizing rule
}

// shape returns the sizing rule's chunk geometry: the element count of a
// full-size chunk, the number of geometric chunks before the first full-size
// one, and the element count of those geometric chunks together.
func shape[T any]() (full, geo, geoLen int) {
	var zero T
	full = max(maxChunkBytes/max(int(unsafe.Sizeof(zero)), 1), 1)
	// The smallest geo with firstChunk<<geo >= full.
	geo = bits.Len(uint((full - 1) / firstChunk))
	return full, geo, firstChunk * (1<<geo - 1)
}

// SetChunkLen fixes every chunk of the list at n elements, n a power of two
// above 1, in place of the sizing rule: a caller whose live elements span a
// known window sizes its chunks to it. Call it before the first Append;
// setting the same n again does nothing.
func (l *List[T]) SetChunkLen(n int) {
	if n < 2 || n&(n-1) != 0 || n != 1<<l.shift && l.chunks != nil {
		panic(fmt.Sprintf("chunks: chunk length %d for a list holding %d chunks", n, len(l.chunks)))
	}
	l.shift = uint(bits.TrailingZeros(uint(n)))
}

// chunkLen returns the element count of chunk k.
func (l *List[T]) chunkLen(k int) int {
	if l.shift != 0 {
		return 1 << l.shift
	}
	full, _, _ := shape[T]()
	return min(firstChunk<<min(k, 40), full) // k capped: a shift past the word is 0
}

// locate returns the chunk holding position i, as an index into l.chunks, and
// i's offset in it.
func (l *List[T]) locate(i int) (k, off int) {
	if l.shift != 0 {
		return i>>l.shift - l.first, i & (1<<l.shift - 1)
	}
	full, geo, geoLen := shape[T]()
	if i < geoLen {
		k = bits.Len(uint(i/firstChunk+1)) - 1
		return k - l.first, i - firstChunk*(1<<k-1)
	}
	i -= geoLen
	return geo + i/full - l.first, i % full
}

// Len returns one past the last index: the number of elements appended and
// not truncated, trimmed ones included.
func (l *List[T]) Len() int { return l.n }

// Head returns the lowest live index: every element below it is trimmed.
func (l *List[T]) Head() int { return l.head }

// Append adds v at the end. It allocates only when the last chunk is full and
// the list keeps no chunk past it.
func (l *List[T]) Append(v T) {
	if len(l.tail) == cap(l.tail) {
		if l.used == len(l.chunks) {
			l.chunks = append(l.chunks, make([]T, l.chunkLen(l.first+l.used)))
		}
		l.tail = l.chunks[l.used][:0]
		l.used++
	}
	l.tail = append(l.tail, v)
	l.n++
}

// At returns element i.
func (l *List[T]) At(i int) T { return *l.Ptr(i) }

// Ptr returns the address of element i, for a caller that updates it in
// place. A chunk never moves, so the address holds element i until a
// Truncate or a TrimBelow drops it.
func (l *List[T]) Ptr(i int) *T {
	if i < l.head || i >= l.n {
		panic(fmt.Sprintf("chunks: index %d out of range [%d:%d]", i, l.head, l.n))
	}
	k, off := l.locate(i)
	return &l.chunks[k][off]
}

// Set puts v at index i, at or above the head: in place of element i below
// Len, at the end at Len, and after zero elements up to i past it. It is the
// positional replay of a log whose records name their index, in which a
// later record for an index supersedes the earlier one.
func (l *List[T]) Set(i int, v T) {
	var zero T
	for l.n < i {
		l.Append(zero)
	}
	if i == l.n {
		l.Append(v)
		return
	}
	*l.Ptr(i) = v
}

// Truncate cuts the list to its first n elements, n no lower than the head.
// It zeroes the elements it drops, so nothing they point to stays reachable,
// and keeps every chunk, for the appends that follow.
func (l *List[T]) Truncate(n int) {
	if n < l.head || n > l.n {
		panic(fmt.Sprintf("chunks: truncate to %d of [%d:%d]", n, l.head, l.n))
	}
	if n == l.n {
		return
	}
	k, off := l.locate(n)
	if k < l.used-1 {
		clear(l.tail)
		for _, c := range l.chunks[k+1 : l.used-1] {
			clear(c)
		}
		l.tail = l.chunks[k]
	}
	clear(l.tail[off:])
	l.tail, l.used, l.n = l.tail[:off], k+1, n
}

// TrimBelow forgets the elements below n: it zeroes them, so nothing they
// point to stays reachable, and moves the head to n. No index changes. Every
// chunk wholly below the head but the one the next Append fills is dropped,
// the chunks behind it moving down. A list that keeps no chunk past that one
// keeps the last chunk dropped instead, if it is full-size, so a list trimmed
// as it grows reuses one chunk per chunk it fills and allocates nothing, and a
// list trimmed after a long pause gives the rest back.
func (l *List[T]) TrimBelow(n int) {
	if n > l.n {
		panic(fmt.Sprintf("chunks: trim below %d of [%d:%d]", n, l.head, l.n))
	}
	if n <= l.head {
		return
	}
	for i := l.head; i < n; {
		k, off := l.locate(i)
		end := min(len(l.chunks[k]), off+n-i)
		clear(l.chunks[k][off:end])
		i += end - off
	}
	l.head = n
	// k is the chunk the next Append fills: past the last in use when the
	// head sits at the end of a full one, and then that one goes too.
	k, _ := l.locate(n)
	if d := min(k, l.used); d > 0 {
		// Every chunk after a full-size one is full-size, so a dropped
		// full-size chunk fits the end of the list.
		spare := l.chunks[d-1]
		keep := l.used == len(l.chunks) && len(spare) == l.chunkLen(l.first+len(l.chunks))
		m := copy(l.chunks, l.chunks[d:])
		clear(l.chunks[m:])
		if l.chunks = l.chunks[:m]; keep {
			l.chunks = append(l.chunks, spare)
		}
		l.first, l.used = l.first+d, l.used-d
		if l.used == 0 {
			l.tail = nil
			if len(l.chunks) > 0 {
				l.tail, l.used = l.chunks[0][:0], 1
			}
		}
	}
}

// Chunks yields elements [from, to) as consecutive slices, one per chunk they
// span; from is no lower than the head. The slices alias the list and are
// capped at their length; they hold their values until a Truncate or a
// TrimBelow drops them.
func (l *List[T]) Chunks(from, to int) iter.Seq[[]T] {
	if from < l.head || to > l.n || from > to {
		panic(fmt.Sprintf("chunks: range [%d:%d] of [%d:%d]", from, to, l.head, l.n))
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

// AppendTo appends every live element to dst, in order, and returns the
// result.
func (l *List[T]) AppendTo(dst []T) []T {
	for c := range l.Chunks(l.head, l.n) {
		dst = append(dst, c...)
	}
	return dst
}
