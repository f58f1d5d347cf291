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
// through a free list; a bucket is a list threaded through the slots. Nothing
// is ever cancelled (DESIGN.md §6.5): a scheduled event fires, so every ref
// filed in a bucket or the overflow ladder is a pending event and the
// queue's counts are exact.
package simnet

import (
	"math"
	"math/bits"
	"slices"
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
	at   Time
	seq  uint64
	fn   func()
	next int32 // the slot after this one in its bucket's list
}

// calQueue is the calendar queue. It stores int32 indices into the slot
// slab, never pointers. A bucket is a circular list through eventSlot.next:
// tails[b] is the index+1 of its last-filed slot (0 = empty, so a new queue
// needs no init loop), whose next is the first. Filing appends in O(1), and
// a walk visits the bucket in filing order, almost always seq order:
// insertion sort's best case. Dispatch moves the current bucket's list into
// run, sorts it once and consumes it from pos; a slot filed into that bucket
// later is inserted into run in order.
//
// Invariants, with `low` the aligned lower edge of the current bucket:
//   - every pending slot has at >= the simulator's clock >= low;
//   - wheel-resident slots have at in [low, low+wheelSpan);
//   - overflow slots have at >= rotEnd, the end of the window covered by
//     the last redistribution (rotEnd <= low+wheelSpan always);
//   - every ref in a list, in run beyond pos, or in overflow is a pending
//     event: size == len(overflow) + len(run) - pos + the lists' lengths,
//     and len(slots) == len(free) + size.
type calQueue struct {
	slots []eventSlot
	free  []int32

	tails  [numBuckets]int32
	run    []int32 // the current bucket, sorted, once dispatch entered it
	cur    int     // index of the bucket containing low
	low    Time    // aligned inclusive lower edge of the current bucket
	rotEnd Time    // exclusive end of the window the wheel currently covers
	pos    int     // consumed prefix of run
	sorted bool    // dispatch has entered the current bucket

	// occ is the occupancy bitmap, one bit per bucket: set when a slot is
	// filed into the bucket's list, cleared when dispatch leaves it. advance
	// skips empty buckets a word at a time: an idle gap costs O(gap/64).
	occ [numBuckets / 64]uint64

	overflow []int32
	ovMin    Time // earliest overflow timestamp (maxTime when empty)

	size int // pending events, wheel + overflow
}

// wheelEmpty reports whether every pending event sits in the overflow ladder.
func (q *calQueue) wheelEmpty() bool { return q.size == len(q.overflow) }

func (q *calQueue) init() {
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
	if b == q.cur && q.sorted {
		// Dispatch is mid-way through this bucket: keep run sorted. The
		// new slot carries the highest seq issued so far, so bounding on
		// at alone lands it after every equal timestamp (FIFO among ties).
		lo, hi := q.pos, len(q.run)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if q.slots[q.run[mid]].at <= at {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		q.run = slices.Insert(q.run, lo, idx)
		return
	}
	q.push(b, idx)
}

// push appends slot idx to bucket b's list and marks b occupied.
func (q *calQueue) push(b int, idx int32) {
	q.occ[b>>6] |= 1 << uint(b&63)
	if t := q.tails[b] - 1; t < 0 {
		q.slots[idx].next = idx
	} else {
		q.slots[idx].next = q.slots[t].next
		q.slots[t].next = idx
	}
	q.tails[b] = idx + 1
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
			q.sorted, q.pos = true, 0
			if t := q.tails[q.cur] - 1; t >= 0 {
				q.tails[q.cur] = 0
				if q.slots[t].next == t && q.slots[t].at <= deadline {
					q.size-- // a one-event bucket needs no run
					return t, true
				}
				q.enterBucket(t)
			}
		}
		if q.pos < len(q.run) {
			idx := q.run[q.pos]
			if q.slots[idx].at > deadline {
				return -1, false
			}
			q.pos++
			q.size--
			return idx, true
		}
		// Bucket consumed. Advance, but never past the deadline's bucket:
		// the wheel stays <= the clock the caller is about to commit.
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
	for {
		if q.low == q.rotEnd {
			q.redistribute()
		}
		if q.low+bucketWidth > deadline || q.wheelEmpty() ||
			q.tails[q.cur] != 0 {
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
	q.redistribute()
}

// flushCurrent leaves the current bucket once dispatch has consumed it.
// Only run can hold consumed refs — slots that already fired and were
// recycled, perhaps reused by a newer schedule — and they must not outlive
// the pass that consumed them.
func (q *calQueue) flushCurrent() {
	q.run = q.run[:0]
	q.occ[q.cur>>6] &^= 1 << uint(q.cur&63)
	q.pos = 0
	q.sorted = false
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
			q.push(int(at>>bucketShift)&bucketMask, idx)
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

// enterBucket moves the list whose last-filed slot is t into run, in filing
// order, and sorts run by (at, seq) for dispatch. Each event is sorted at
// most once, so dispatch stays O(1) amortized with an O(k log k) one-time
// cost per k-event bucket.
func (q *calQueue) enterBucket(t int32) {
	run := q.run
	for i := q.slots[t].next; ; i = q.slots[i].next {
		run = append(run, i)
		if i == t {
			break
		}
	}
	q.run = run
	q.quickSort(run)
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

// quickSort orders slot indices by (at, seq): hand-rolled quicksort down to
// 32 refs, insertion sort below that, for the common small bucket. No
// interfaces, no allocations — this is the dispatch hot path.
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
