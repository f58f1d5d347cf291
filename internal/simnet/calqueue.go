// Calendar-queue event core.
//
// The simulator's pending-event set is a calendar queue (Brown, CACM 1988;
// the same shape as kernel timer wheels): a power-of-two ring of fixed-width
// time buckets covering one "rotation" of simulated time, plus an overflow
// ladder for events beyond the ring's span. Scheduling is O(1) — compute the
// bucket from the timestamp and append — and dispatch is O(1) amortized:
// the queue walks buckets in time order, sorting each bucket once by
// (at, seq) when dispatch first enters it. This replaces the binary event
// heap, whose O(log n) sift with pointer chasing dominated dense-timer
// profiles (see DESIGN.md §6.5 for measurements).
//
// Events live in a struct-of-slots slab addressed by int32 index, recycled
// through a free list. Nothing is ever cancelled (DESIGN.md §6.5): a
// scheduled event fires, so every ref filed in a bucket or the overflow
// ladder is a pending event and the queue's counts are exact.
package simnet

import (
	"math"
	"math/bits"
)

// Wheel geometry, tuned on the figure-8 sweep. Bucket width 256ns keeps
// the dense wire/poll traffic at a few events per bucket, so the one-time
// per-bucket sort stays in insertion-sort range; 8192 buckets give a 2.1ms
// rotation span that holds the short-half of the periodic timers
// (heartbeats at 1-2ms). Longer timers — retries up to 5ms, elections
// 8-20ms — sit in the overflow ladder and are pulled in one rotation
// (2.1ms) ahead of their deadline, costing each a couple of redistribute
// scans. Wider 1µs buckets measured ~13% slower end-to-end on the sweep
// (bigger sorts), narrower 128ns buckets ~5% slower (more advances).
const (
	bucketShift = 8                               // bucket width = 1<<8 ns
	bucketBits  = 13                              // 1<<13 buckets
	numBuckets  = 1 << bucketBits                 //
	bucketMask  = numBuckets - 1                  //
	bucketWidth = Time(1) << bucketShift          //
	wheelSpan   = Time(numBuckets) << bucketShift //
)

// maxTime is the "no horizon" deadline used by Step/Run.
const maxTime = Time(math.MaxInt64)

// eventSlot is one entry in the event slab. Slots are recycled through the
// free list the moment they fire.
type eventSlot struct {
	at  Time
	seq uint64
	fn  func()
}

// calQueue is the calendar queue. It stores int32 indices into the slot
// slab, never pointers, so bucket scans touch densely packed memory.
//
// Invariants, with `low` the aligned lower edge of the current bucket:
//   - every pending slot has at >= the simulator's clock >= low;
//   - wheel-resident slots have at in [low, low+wheelSpan);
//   - overflow slots have at >= rotEnd, the end of the window covered by
//     the last redistribution (rotEnd <= low+wheelSpan always);
//   - every ref outside the current bucket's consumed prefix is a pending
//     event: size == len(overflow) + refs filed in buckets beyond pos, and
//     len(slots) == len(free) + size.
type calQueue struct {
	slots []eventSlot
	free  []int32

	buckets [][]int32
	cur     int  // index of the bucket containing low
	low     Time // aligned inclusive lower edge of the current bucket
	rotEnd  Time // exclusive end of the window the wheel currently covers
	pos     int  // consumed prefix of the sorted current bucket
	sorted  bool // current bucket has been sorted by dispatch

	// occ is the occupancy bitmap, one bit per bucket: set when a slot is
	// filed into the bucket, cleared when dispatch leaves it empty. advance
	// uses it to skip runs of empty buckets a word at a time, so dispatch
	// across an idle gap costs O(gap/64) instead of O(gap).
	occ [numBuckets / 64]uint64

	overflow []int32
	ovMin    Time // earliest overflow timestamp (maxTime when empty)

	size int // pending events, wheel + overflow
}

// wheelEmpty reports whether every pending event sits in the overflow ladder.
func (q *calQueue) wheelEmpty() bool { return q.size == len(q.overflow) }

// bucketCap is the initial per-bucket capacity. Every bucket's slice is
// carved out of one contiguous arena so a fresh queue dispatches its first
// rotation without a single bucket-array allocation; buckets that outgrow
// the arena stride fall back to ordinary append growth (the three-index
// slice below caps each carve so growth copies out instead of clobbering
// the neighbor).
const bucketCap = 4

func (q *calQueue) init() {
	q.buckets = make([][]int32, numBuckets)
	arena := make([]int32, numBuckets*bucketCap)
	for i := range q.buckets {
		q.buckets[i] = arena[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	q.rotEnd = wheelSpan
	q.ovMin = maxTime
}

// alloc takes a slot from the free list (or grows the slab), fills it, and
// files it in the wheel or overflow. O(1); allocation-free in steady state.
func (q *calQueue) alloc(at Time, seq uint64, fn func()) {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
		q.slots[idx] = eventSlot{at: at, seq: seq, fn: fn}
	} else {
		q.slots = append(q.slots, eventSlot{at: at, seq: seq, fn: fn})
		idx = int32(len(q.slots) - 1)
	}
	q.size++
	q.file(idx, at)
}

// file places slot idx into its bucket or the overflow ladder.
func (q *calQueue) file(idx int32, at Time) {
	if at-q.low >= wheelSpan {
		q.overflow = append(q.overflow, idx)
		if at < q.ovMin {
			q.ovMin = at
		}
		return
	}
	b := int(at>>bucketShift) & bucketMask
	q.occ[b>>6] |= 1 << uint(b&63)
	if b == q.cur && q.sorted {
		// Dispatch is mid-way through this bucket: keep the unconsumed
		// suffix sorted. The new slot carries the highest seq issued so
		// far, so upper-bounding on at alone lands it after every equal
		// timestamp, preserving FIFO among ties.
		bkt := q.buckets[b]
		lo, hi := q.pos, len(bkt)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if q.slots[bkt[mid]].at <= at {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bkt = append(bkt, 0)
		copy(bkt[lo+1:], bkt[lo:])
		bkt[lo] = idx
		q.buckets[b] = bkt
		return
	}
	q.buckets[b] = append(q.buckets[b], idx)
}

// recycle returns a fired slot to the free list.
func (q *calQueue) recycle(idx int32) {
	q.slots[idx].fn = nil
	q.free = append(q.free, idx)
}

// popDue removes and returns the earliest event with at <= deadline. It
// reports false — touching neither the clock nor any event — when the
// earliest event is past the deadline, which is RunUntil's horizon.
func (q *calQueue) popDue(deadline Time) (int32, bool) {
	for q.size > 0 {
		if q.wheelEmpty() {
			if q.ovMin > deadline {
				return -1, false
			}
			q.jump()
		}
		if !q.sorted {
			q.enterBucket()
		}
		bkt := q.buckets[q.cur]
		if q.pos < len(bkt) {
			idx := bkt[q.pos]
			if q.slots[idx].at > deadline {
				return -1, false
			}
			q.pos++
			q.size--
			return idx, true
		}
		// Bucket consumed. Advance — but never past the bucket that
		// contains the deadline, so the wheel's position stays <= the
		// clock the caller is about to commit.
		q.flushCurrent()
		if q.low+bucketWidth > deadline {
			return -1, false
		}
		q.advance(deadline)
	}
	return -1, false
}

// advance moves the wheel forward to the next bucket worth entering: the
// next one with a set occupancy bit, capped by the bucket containing the
// deadline. Empty buckets are skipped through the bitmap rather than one
// step at a time, and the overflow ladder is redistributed each time a full
// rotation's window has been consumed (skips never cross that boundary:
// redistribution may file overflow events into the skipped-over range).
func (q *calQueue) advance(deadline Time) {
	q.cur = (q.cur + 1) & bucketMask
	q.low += bucketWidth
	q.sorted = false
	for {
		if q.low == q.rotEnd {
			q.redistribute()
		}
		if q.low+bucketWidth > deadline || q.wheelEmpty() ||
			len(q.buckets[q.cur]) != 0 {
			return
		}
		// Empty bucket. Skip to the next set bit, but not past the
		// redistribute boundary or the deadline's bucket.
		maxSteps := int((q.rotEnd - q.low) >> bucketShift)
		if d := int((deadline >> bucketShift) - (q.low >> bucketShift)); d < maxSteps {
			maxSteps = d
		}
		n := q.nextOcc(maxSteps)
		q.cur = (q.cur + n) & bucketMask
		q.low += Time(n) << bucketShift
	}
}

// nextOcc returns the distance from the current bucket to the next bucket
// with a set occupancy bit, capped at maxSteps (which is returned when no
// set bit lies in range). maxSteps must be >= 1.
func (q *calQueue) nextOcc(maxSteps int) int {
	i := q.cur + 1
	end := q.cur + maxSteps // inclusive
	for i <= end {
		b := i & bucketMask
		w := q.occ[b>>6] >> uint(b&63)
		if w != 0 {
			tz := bits.TrailingZeros64(w)
			if i+tz <= end {
				return i + tz - q.cur
			}
			return maxSteps
		}
		i += 64 - (b & 63)
	}
	return maxSteps
}

// jump realigns an empty wheel directly at the earliest overflow event.
func (q *calQueue) jump() {
	q.flushCurrent()
	q.low = q.ovMin >> bucketShift << bucketShift
	q.cur = int(q.ovMin>>bucketShift) & bucketMask
	q.sorted = false
	q.redistribute()
}

// flushCurrent truncates the current bucket once dispatch has consumed it.
// Only the current bucket can hold consumed refs — slots that already fired
// and were recycled (possibly reused by a newer schedule) but whose index
// still sits in the consumed prefix — and they must not outlive the pass
// that consumed them.
func (q *calQueue) flushCurrent() {
	q.buckets[q.cur] = q.buckets[q.cur][:0]
	q.occ[q.cur>>6] &^= 1 << uint(q.cur&63)
	q.pos = 0
}

// redistribute pulls every overflow event inside the wheel's new window
// into its bucket and re-derives the overflow minimum. Called once per
// rotation (or after a jump), so its O(overflow) cost amortizes to O(1)
// per event.
func (q *calQueue) redistribute() {
	q.rotEnd = q.low + wheelSpan
	min := maxTime
	far := q.overflow[:0]
	for _, idx := range q.overflow {
		at := q.slots[idx].at
		if at < q.rotEnd {
			b := int(at>>bucketShift) & bucketMask
			q.occ[b>>6] |= 1 << uint(b&63)
			q.buckets[b] = append(q.buckets[b], idx)
			continue
		}
		far = append(far, idx)
		if at < min {
			min = at
		}
	}
	q.overflow = far
	q.ovMin = min
}

// enterBucket sorts the current bucket by (at, seq) for dispatch. Each event
// is sorted at most once, so dispatch stays O(1) amortized with an
// O(k log k) one-time cost per k-event bucket.
func (q *calQueue) enterBucket() {
	q.sortBucket(q.buckets[q.cur])
	q.pos = 0
	q.sorted = true
}

// sortBucket orders slot indices by (at, seq): insertion sort for the
// common small bucket, hand-rolled quicksort above that. No interfaces, no
// allocations — this is the dispatch hot path.
func (q *calQueue) sortBucket(b []int32) {
	if len(b) < 2 {
		return
	}
	if len(b) <= 32 {
		q.insertionSort(b)
		return
	}
	q.quickSort(b)
}

func (q *calQueue) less(a, b int32) bool {
	sa, sb := &q.slots[a], &q.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (q *calQueue) insertionSort(b []int32) {
	for i := 1; i < len(b); i++ {
		v := b[i]
		j := i - 1
		for j >= 0 && q.less(v, b[j]) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = v
	}
}

func (q *calQueue) quickSort(b []int32) {
	for len(b) > 32 {
		// Median-of-three pivot, middle position.
		m := len(b) / 2
		hi := len(b) - 1
		if q.less(b[m], b[0]) {
			b[m], b[0] = b[0], b[m]
		}
		if q.less(b[hi], b[0]) {
			b[hi], b[0] = b[0], b[hi]
		}
		if q.less(b[hi], b[m]) {
			b[hi], b[m] = b[m], b[hi]
		}
		pivot := b[m]
		i, j := 0, hi
		for i <= j {
			for q.less(b[i], pivot) {
				i++
			}
			for q.less(pivot, b[j]) {
				j--
			}
			if i <= j {
				b[i], b[j] = b[j], b[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j+1 < len(b)-i {
			q.quickSort(b[:j+1])
			b = b[i:]
		} else {
			q.quickSort(b[i:])
			b = b[:j+1]
		}
	}
	q.insertionSort(b)
}
