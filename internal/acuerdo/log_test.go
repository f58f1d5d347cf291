package acuerdo

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func hdr(r, l, c uint32) MsgHdr { return MsgHdr{E: Epoch{r, PID(l)}, Cnt: c} }

func TestLogInsertGet(t *testing.T) {
	var l Log
	l.Insert(Entry{Hdr: hdr(1, 1, 2), Payload: []byte("b")})
	l.Insert(Entry{Hdr: hdr(1, 1, 1), Payload: []byte("a")})
	l.Insert(Entry{Hdr: hdr(1, 1, 3), Payload: []byte("c")})
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	if e := l.Get(hdr(1, 1, 2)); e == nil || string(e.Payload) != "b" {
		t.Fatalf("Get = %+v", e)
	}
	if l.Get(hdr(1, 1, 9)) != nil {
		t.Fatal("missing entry found")
	}
}

func TestLogInsertReplaces(t *testing.T) {
	var l Log
	l.Insert(Entry{Hdr: hdr(1, 1, 1), Payload: []byte("old")})
	l.Insert(Entry{Hdr: hdr(1, 1, 1), Payload: []byte("new")})
	if l.Len() != 1 || string(l.Get(hdr(1, 1, 1)).Payload) != "new" {
		t.Fatal("insert did not replace")
	}
}

func TestLogRemoveFrom(t *testing.T) {
	var l Log
	for c := uint32(1); c <= 10; c++ {
		l.Insert(Entry{Hdr: hdr(1, 1, c)})
	}
	l.RemoveFrom(hdr(1, 1, 6))
	if l.Len() != 5 {
		t.Fatalf("len = %d, want 5", l.Len())
	}
	if l.Get(hdr(1, 1, 6)) != nil || l.Get(hdr(1, 1, 5)) == nil {
		t.Fatal("wrong boundary")
	}
}

func TestLogTrimBelow(t *testing.T) {
	var l Log
	for c := uint32(1); c <= 10; c++ {
		l.Insert(Entry{Hdr: hdr(1, 1, c)})
	}
	l.TrimBelow(hdr(1, 1, 4))
	if l.Len() != 7 || l.Get(hdr(1, 1, 4)) == nil || l.Get(hdr(1, 1, 3)) != nil {
		t.Fatalf("trim wrong: len=%d", l.Len())
	}
}

func TestLogRangeOpen(t *testing.T) {
	var l Log
	for c := uint32(1); c <= 10; c++ {
		l.Insert(Entry{Hdr: hdr(1, 1, c)})
	}
	got := l.RangeOpen(hdr(1, 1, 3), hdr(1, 1, 7))
	if len(got) != 3 || got[0].Hdr.Cnt != 4 || got[2].Hdr.Cnt != 6 {
		t.Fatalf("RangeOpen = %v", got)
	}
	// Open bounds exclude both endpoints even if absent from the log.
	got = l.RangeOpen(MsgHdr{}, hdr(1, 1, 2))
	if len(got) != 1 || got[0].Hdr.Cnt != 1 {
		t.Fatalf("RangeOpen from zero = %v", got)
	}
}

func TestLogRangeClosed(t *testing.T) {
	var l Log
	for c := uint32(1); c <= 10; c++ {
		l.Insert(Entry{Hdr: hdr(1, 1, c)})
	}
	got := l.RangeClosed(hdr(1, 1, 3), hdr(1, 1, 7))
	if len(got) != 5 || got[0].Hdr.Cnt != 3 || got[4].Hdr.Cnt != 7 {
		t.Fatalf("RangeClosed = %v", got)
	}
	// Zero lower bound covers the whole log prefix.
	got = l.RangeClosed(MsgHdr{}, hdr(1, 1, 10))
	if len(got) != 10 {
		t.Fatalf("full range = %d", len(got))
	}
}

func TestLogCrossEpochOrder(t *testing.T) {
	var l Log
	l.Insert(Entry{Hdr: hdr(2, 3, 0)})
	l.Insert(Entry{Hdr: hdr(1, 1, 5)})
	l.Insert(Entry{Hdr: hdr(1, 1, 1)})
	got := l.RangeClosed(MsgHdr{}, hdr(9, 9, 9))
	if got[0].Hdr != hdr(1, 1, 1) || got[1].Hdr != hdr(1, 1, 5) || got[2].Hdr != hdr(2, 3, 0) {
		t.Fatalf("cross-epoch order wrong: %v", got)
	}
}

func TestLogLast(t *testing.T) {
	var l Log
	if l.Last() != nil {
		t.Fatal("empty log has Last")
	}
	l.Insert(Entry{Hdr: hdr(1, 1, 1)})
	l.Insert(Entry{Hdr: hdr(1, 1, 9)})
	if l.Last().Hdr != hdr(1, 1, 9) {
		t.Fatal("wrong Last")
	}
}

func TestLogSortedInvariantProperty(t *testing.T) {
	// Property: after any sequence of random inserts and removals the log
	// stays sorted and duplicate-free.
	f := func(ops []uint16) bool {
		var l Log
		for _, op := range ops {
			c := uint32(op % 64)
			switch (op >> 6) % 3 {
			case 0, 1:
				l.Insert(Entry{Hdr: hdr(1, 1, c)})
			case 2:
				l.RemoveFrom(hdr(1, 1, c))
			}
		}
		all := l.RangeClosed(MsgHdr{}, hdr(9, 9, 9))
		for i := 1; i < len(all); i++ {
			if !all[i-1].Hdr.Less(all[i].Hdr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDiffApplicationIdempotent(t *testing.T) {
	// Property: applying the same diff twice (remove-from + reinsert)
	// leaves the log identical — re-sent diffs are harmless.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		var l Log
		for c := uint32(1); c <= 20; c++ {
			if rng.Intn(2) == 0 {
				l.Insert(Entry{Hdr: hdr(1, 1, c), Payload: []byte{byte(c)}})
			}
		}
		from := hdr(1, 1, uint32(rng.Intn(20)))
		// A diff record is its own buffer: what RangeClosed hands out dies
		// with the entries RemoveFrom is about to delete.
		var entries []Entry
		for _, e := range l.RangeClosed(from, hdr(1, 1, 20)) {
			entries = append(entries, Entry{Hdr: e.Hdr, Payload: bytes.Clone(e.Payload)})
		}
		apply := func() {
			l.RemoveFrom(from)
			for _, e := range entries {
				l.Insert(e)
			}
		}
		apply()
		snap1 := append([]Entry(nil), l.RangeClosed(MsgHdr{}, hdr(9, 9, 9))...) // headers only: the second apply replaces the bytes
		apply()
		snap2 := l.RangeClosed(MsgHdr{}, hdr(9, 9, 9))
		if len(snap1) != len(snap2) {
			t.Fatalf("trial %d: lengths differ", trial)
		}
		for i := range snap1 {
			if snap1[i].Hdr != snap2[i].Hdr || !bytes.Equal(snap2[i].Payload, []byte{byte(snap2[i].Hdr.Cnt)}) {
				t.Fatalf("trial %d: entry %d differs", trial, i)
			}
		}
	}
}

// TestLogOwnsPayload: Insert copies, so the log's bytes are its own — the
// caller's buffer can change (a ring slot is overwritten, a diff record is
// dropped) without the entry noticing — across chunk boundaries, for an entry
// larger than a chunk, and with RemoveFrom and TrimBelow doing what they did.
func TestLogOwnsPayload(t *testing.T) {
	var l Log
	pattern := func(c uint32, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(c) + byte(i)
		}
		return p
	}
	size := func(c uint32) int {
		if c == 40 {
			return logChunk + logChunk/2 // larger than a chunk
		}
		return 1000 + int(c) // ~65 per chunk: 200 entries cross several
	}
	buf := make([]byte, 2*logChunk)
	for c := uint32(1); c <= 200; c++ {
		p := buf[:size(c)]
		copy(p, pattern(c, len(p)))
		l.Insert(Entry{Hdr: hdr(1, 1, c), Payload: p})
		clear(p) // the caller's buffer is reused at once
	}
	check := func(lo, hi uint32) {
		t.Helper()
		if l.Len() != int(hi-lo+1) {
			t.Fatalf("len = %d, want %d", l.Len(), hi-lo+1)
		}
		for c := lo; c <= hi; c++ {
			e := l.Get(hdr(1, 1, c))
			if e == nil || !bytes.Equal(e.Payload, pattern(c, size(c))) {
				t.Fatalf("entry %d lost or changed", c)
			}
		}
	}
	check(1, 200)

	// A stored payload is capped: appending to it cannot run into the next.
	e := l.Get(hdr(1, 1, 7))
	_ = append(e.Payload, 0xff)
	check(1, 200)

	l.RemoveFrom(hdr(1, 1, 151))
	l.TrimBelow(hdr(1, 1, 11))
	if l.Get(hdr(1, 1, 151)) != nil || l.Get(hdr(1, 1, 10)) != nil {
		t.Fatal("RemoveFrom/TrimBelow left entries outside [11,150]")
	}
	check(11, 150)

	// Replacing and re-extending after the cut leaves the survivors alone.
	p := pattern(150, size(150))
	l.Insert(Entry{Hdr: hdr(1, 1, 150), Payload: p})
	for c := uint32(151); c <= 160; c++ {
		l.Insert(Entry{Hdr: hdr(1, 1, c), Payload: pattern(c, size(c))})
	}
	check(11, 160)
}

// refLog is the Log this package had before the deque and the counted arena:
// a sorted slice, copy-down trims, and one fresh allocation per payload (so
// nothing it holds is ever recycled). TestLogModel runs the real Log against
// it.
type refLog struct{ entries []Entry }

func (l *refLog) search(h MsgHdr) int {
	return sort.Search(len(l.entries), func(i int) bool { return !l.entries[i].Hdr.Less(h) })
}

func (l *refLog) Insert(e Entry) {
	e.Payload = bytes.Clone(e.Payload)
	i := l.search(e.Hdr)
	if i < len(l.entries) && l.entries[i].Hdr == e.Hdr {
		l.entries[i] = e
		return
	}
	l.entries = append(l.entries, Entry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
}

func (l *refLog) Get(h MsgHdr) *Entry {
	if i := l.search(h); i < len(l.entries) && l.entries[i].Hdr == h {
		return &l.entries[i]
	}
	return nil
}

func (l *refLog) RemoveFrom(h MsgHdr) { l.entries = l.entries[:l.search(h)] }

func (l *refLog) TrimBelow(h MsgHdr) {
	if i := l.search(h); i > 0 {
		l.entries = append(l.entries[:0], l.entries[i:]...)
	}
}

func (l *refLog) RangeOpen(lo, hi MsgHdr) []Entry {
	i := l.search(lo)
	if i < len(l.entries) && l.entries[i].Hdr == lo {
		i++
	}
	return l.entries[i:l.search(hi)]
}

func (l *refLog) RangeClosed(lo, hi MsgHdr) []Entry {
	i, j := l.search(lo), l.search(hi)
	if j < len(l.entries) && l.entries[j].Hdr == hi {
		j++
	}
	return l.entries[i:j]
}

func (l *refLog) Last() *Entry {
	if len(l.entries) == 0 {
		return nil
	}
	return &l.entries[len(l.entries)-1]
}

// TestLogModel drives Log and refLog with the same random program — in-order
// and out-of-order inserts, same-header replacements, payloads from empty to
// larger than a chunk, RemoveFrom and TrimBelow at random cuts — and after
// every step compares Len, Get, both Ranges, Last and the bytes of every live
// payload. A chunk recycled under a live entry, a miscounted chunk or a stale
// slot left in the deque shows up as a payload that changed.
func TestLogModel(t *testing.T) {
	same := func(step int, what string, got, want []Entry) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("step %d: %s has %d entries, want %d", step, what, len(got), len(want))
		}
		for i := range want {
			if got[i].Hdr != want[i].Hdr || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("step %d: %s entry %d is %v (%d bytes), want %v (%d bytes) with the bytes it was inserted with",
					step, what, i, got[i].Hdr, len(got[i].Payload), want[i].Hdr, len(want[i].Payload))
			}
		}
	}
	sameEntry := func(step int, what string, got, want *Entry) {
		t.Helper()
		if (got == nil) != (want == nil) {
			t.Fatalf("step %d: %s = %v, want %v", step, what, got, want)
		}
		if got != nil {
			same(step, what, []Entry{*got}, []Entry{*want})
		}
	}
	top := hdr(9, 9, 9)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l Log
		var ref refLog
		buf := make([]byte, 2*logChunk)
		next := uint32(1) // the next in-order count
		payload := func() []byte {
			var n int
			switch k := rng.Intn(100); {
			case k < 5:
				n = 0
			case k < 8:
				n = logChunk + rng.Intn(logChunk) // oversize
			case k < 40:
				n = 4000 + rng.Intn(8000) // a few per chunk
			default:
				n = 1 + rng.Intn(1200)
			}
			p := buf[:n]
			rng.Read(p)
			return p
		}
		insert := func(c uint32) {
			e := Entry{Hdr: hdr(1, 1, c), Payload: payload()}
			l.Insert(e)
			ref.Insert(e)
			clear(e.Payload) // the caller's buffer is reused at once
		}
		for step := 0; step < 3000; step++ {
			lo := uint32(0)
			if len(ref.entries) > 0 {
				lo = ref.entries[0].Hdr.Cnt
			}
			switch k := rng.Intn(100); {
			case k < 55: // in order
				insert(next)
				next++
			case k < 65: // out of order: a gap, filled later or never
				next += uint32(1 + rng.Intn(3))
				insert(next)
				next++
			case k < 75 && next > lo: // replace, fill a gap, or land just below the head
				below := min(lo, 2)
				insert(lo - below + uint32(rng.Intn(int(next-lo+below))))
			case k < 80 && next > lo:
				h := hdr(1, 1, lo+uint32(rng.Intn(int(next-lo)+1)))
				l.RemoveFrom(h)
				ref.RemoveFrom(h)
			case next > lo:
				// Trim like a replica does: usually a little, sometimes all.
				span := int(next-lo) + 1
				if rng.Intn(4) > 0 {
					span = min(span, 40)
				}
				h := hdr(1, 1, lo+uint32(rng.Intn(span)))
				l.TrimBelow(h)
				ref.TrimBelow(h)
			}
			if l.Len() != len(ref.entries) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, l.Len(), len(ref.entries))
			}
			same(step, "the whole log", l.RangeClosed(MsgHdr{}, top), ref.entries)
			sameEntry(step, "Last", l.Last(), ref.Last())
			a, b := hdr(1, 1, lo+uint32(rng.Intn(int(next-lo)+2))), hdr(1, 1, lo+uint32(rng.Intn(int(next-lo)+2)))
			if b.Less(a) {
				a, b = b, a
			}
			if a != b { // an empty open interval is not a query the replica makes
				same(step, "RangeOpen", l.RangeOpen(a, b), ref.RangeOpen(a, b))
			}
			same(step, "RangeClosed", l.RangeClosed(a, b), ref.RangeClosed(a, b))
			sameEntry(step, "Get", l.Get(a), ref.Get(a))
			if l.head > 0 {
				for i, e := range l.entries[:l.head] {
					if e.Hdr != (MsgHdr{}) || e.chunk != 0 || e.Payload != nil {
						t.Fatalf("seed %d step %d: dead slot %d still holds %v", seed, step, i, e.Hdr)
					}
				}
			}
		}
		// The arena's books balance: every live entry is counted in its chunk,
		// every chunk nobody points into is empty and on the free list or open.
		live := make([]int, len(l.chunks)+1)
		for _, e := range l.live() {
			live[e.chunk]++
		}
		free := 0
		for i, c := range l.chunks {
			if c.live != live[i+1] {
				t.Fatalf("seed %d: chunk %d counts %d live entries, %d point into it", seed, i+1, c.live, live[i+1])
			}
			if c.live == 0 {
				if len(c.buf) != 0 {
					t.Fatalf("seed %d: empty chunk %d still has %d bytes in use", seed, i+1, len(c.buf))
				}
				if uint32(i+1) != l.open {
					free++
				}
			}
		}
		if free != len(l.free) {
			t.Fatalf("seed %d: %d empty chunks, %d on the free list", seed, free, len(l.free))
		}
		// Dropping everything returns every chunk and leaves no stale slot.
		l.TrimBelow(top)
		if l.Len() != 0 || len(l.free)+1 < len(l.chunks) {
			t.Fatalf("seed %d: after trimming everything, %d entries and %d of %d chunks free", seed, l.Len(), len(l.free), len(l.chunks))
		}
		for i, e := range l.entries[:cap(l.entries)] {
			if e.Payload != nil {
				t.Fatalf("seed %d: slot %d of the backing array still points at a payload", seed, i)
			}
		}
	}
}

// TestEntrySize pins the layout the arena's bookkeeping rides on: the chunk id
// fills the padding after the 12-byte header, so an Entry is as large as it
// was without it and a log that never trims (every durable run) allocates what
// it did.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 40 {
		t.Fatalf("Entry is %d bytes, want 40", n)
	}
}

// TestLogSteadyStateAllocFree: a log that is trimmed as it grows — a fixed
// window of 1000-byte entries, trimmed every few inserts as pushCommitRow
// does — cycles through the chunks and the deque it already has and allocates
// nothing, however long it runs.
func TestLogSteadyStateAllocFree(t *testing.T) {
	const window, every = 256, 8
	var l Log
	p := make([]byte, 1000)
	e := Epoch{Round: 1, Ldr: 1}
	cnt := uint32(0)
	step := func() {
		cnt++
		l.Insert(Entry{Hdr: MsgHdr{E: e, Cnt: cnt}, Payload: p})
		if cnt%every == 0 && cnt > window {
			l.TrimBelow(MsgHdr{E: e, Cnt: cnt - window})
		}
	}
	for i := 0; i < 8*window; i++ {
		step()
	}
	chunks := len(l.chunks)
	if got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4*window; i++ {
			step()
		}
	}); got != 0 {
		t.Fatalf("%v allocations per %d inserts at a fixed window, want 0", got, 4*window)
	}
	if len(l.chunks) != chunks || l.Len() > window+every {
		t.Fatalf("%d chunks grew to %d, %d entries held at window %d", chunks, len(l.chunks), l.Len(), window)
	}
}
