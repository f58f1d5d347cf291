package acuerdo

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"acuerdo/internal/chunks"
)

// logChunk is the arena's chunk size, for payloads sized against it.
const logChunk = chunks.ArenaChunkSize

func hdr(r, l, c uint32) MsgHdr { return MsgHdr{E: Epoch{r, PID(l)}, Cnt: c} }

// entries returns copies of l's entries at positions [i, j), read through At.
func entries(l *Log, i, j int) []Entry {
	var es []Entry
	for p := i; p < j; p++ {
		es = append(es, *l.At(p))
	}
	return es
}

// rangeOpen and rangeClosed return the entries the Range methods name.
func rangeOpen(l *Log, lo, hi MsgHdr) []Entry {
	i, j := l.RangeOpen(lo, hi)
	return entries(l, i, j)
}

func rangeClosed(l *Log, lo, hi MsgHdr) []Entry {
	i, j := l.RangeClosed(lo, hi)
	return entries(l, i, j)
}

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
	got := rangeOpen(&l, hdr(1, 1, 3), hdr(1, 1, 7))
	if len(got) != 3 || got[0].Hdr.Cnt != 4 || got[2].Hdr.Cnt != 6 {
		t.Fatalf("RangeOpen = %v", got)
	}
	// Open bounds exclude both endpoints even if absent from the log.
	got = rangeOpen(&l, MsgHdr{}, hdr(1, 1, 2))
	if len(got) != 1 || got[0].Hdr.Cnt != 1 {
		t.Fatalf("RangeOpen from zero = %v", got)
	}
}

func TestLogRangeClosed(t *testing.T) {
	var l Log
	for c := uint32(1); c <= 10; c++ {
		l.Insert(Entry{Hdr: hdr(1, 1, c)})
	}
	got := rangeClosed(&l, hdr(1, 1, 3), hdr(1, 1, 7))
	if len(got) != 5 || got[0].Hdr.Cnt != 3 || got[4].Hdr.Cnt != 7 {
		t.Fatalf("RangeClosed = %v", got)
	}
	// Zero lower bound covers the whole log prefix.
	got = rangeClosed(&l, MsgHdr{}, hdr(1, 1, 10))
	if len(got) != 10 {
		t.Fatalf("full range = %d", len(got))
	}
}

func TestLogCrossEpochOrder(t *testing.T) {
	var l Log
	l.Insert(Entry{Hdr: hdr(2, 3, 0)})
	l.Insert(Entry{Hdr: hdr(1, 1, 5)})
	l.Insert(Entry{Hdr: hdr(1, 1, 1)})
	got := rangeClosed(&l, MsgHdr{}, hdr(9, 9, 9))
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
		all := rangeClosed(&l, MsgHdr{}, hdr(9, 9, 9))
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
		var diff []Entry
		for _, e := range rangeClosed(&l, from, hdr(1, 1, 20)) {
			diff = append(diff, Entry{Hdr: e.Hdr, Payload: bytes.Clone(e.Payload)})
		}
		apply := func() {
			l.RemoveFrom(from)
			for _, e := range diff {
				l.Insert(e)
			}
		}
		apply()
		snap1 := rangeClosed(&l, MsgHdr{}, hdr(9, 9, 9)) // headers only: the second apply replaces the bytes
		apply()
		snap2 := rangeClosed(&l, MsgHdr{}, hdr(9, 9, 9))
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

// refLog is the Log this package had before the blocks: a sorted deque,
// entries[head:] of one slice, whose trim advances the head and copies the
// live tail down once the dead prefix is as long. It clones every payload
// instead of keeping an arena, so nothing it holds is ever recycled.
// TestLogModel runs the real Log against it.
type refLog struct {
	entries []Entry
	head    int
}

func (l *refLog) live() []Entry { return l.entries[l.head:] }

func (l *refLog) search(h MsgHdr) int {
	es := l.live()
	return sort.Search(len(es), func(i int) bool { return !es[i].Hdr.Less(h) })
}

func (l *refLog) reset() { l.entries, l.head = l.entries[:0], 0 }

func (l *refLog) Insert(e Entry) {
	e.Payload = bytes.Clone(e.Payload)
	i := l.head + l.search(e.Hdr)
	if i < len(l.entries) && l.entries[i].Hdr == e.Hdr {
		l.entries[i] = e
		return
	}
	l.entries = append(l.entries, Entry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
}

func (l *refLog) Get(h MsgHdr) *Entry {
	es := l.live()
	if i := l.search(h); i < len(es) && es[i].Hdr == h {
		return &es[i]
	}
	return nil
}

func (l *refLog) RemoveFrom(h MsgHdr) { l.entries = l.entries[:l.head+l.search(h)] }

func (l *refLog) TrimBelow(h MsgHdr) {
	es := l.live()
	i := l.search(h)
	l.head += i
	if rest := es[i:]; l.head >= len(rest) {
		l.entries = l.entries[:copy(l.entries, rest)]
		l.head = 0
	}
}

func (l *refLog) RangeOpen(lo, hi MsgHdr) []Entry {
	es := l.live()
	i := l.search(lo)
	if i < len(es) && es[i].Hdr == lo {
		i++
	}
	return es[i:l.search(hi)]
}

func (l *refLog) RangeClosed(lo, hi MsgHdr) []Entry {
	es := l.live()
	i, j := l.search(lo), l.search(hi)
	if j < len(es) && es[j].Hdr == hi {
		j++
	}
	return es[i:j]
}

func (l *refLog) Last() *Entry {
	es := l.live()
	if len(es) == 0 {
		return nil
	}
	return &es[len(es)-1]
}

// vacant reports whether e is a zero slot.
func vacant(e *Entry) bool { return e.Hdr == MsgHdr{} && e.chunk == 0 && e.Payload == nil }

// arenaBook is one arena chunk as the log's audits read it: the claims it
// counts, the bytes it has in use and its buffer.
type arenaBook struct {
	live, used int
	buf        unsafe.Pointer
}

// arenaBooks reads l's arena: its chunks by id-1, the open chunk's id and the
// length of its free list. The arena is internal/chunks' type, whose books no
// production caller reads; reflection reads its unexported fields here rather
// than give it accessors only tests would call.
func arenaBooks(l *Log) (books []arenaBook, open uint32, free int) {
	a := reflect.ValueOf(&l.arena).Elem()
	cs := a.FieldByName("chunks")
	for i := range cs.Len() {
		c, buf := cs.Index(i), cs.Index(i).FieldByName("buf")
		books = append(books, arenaBook{int(c.FieldByName("live").Int()), buf.Len(), buf.UnsafePointer()})
	}
	return books, uint32(a.FieldByName("open").Uint()), a.FieldByName("free").Len()
}

// arenaLen returns the number of chunks l's arena holds.
func arenaLen(l *Log) int { books, _, _ := arenaBooks(l); return len(books) }

// logChunks reads l's list as the audits need it: every chunk it holds (those
// its entries sit in, then those kept past them for the appends to come), the
// number in use, and the position of the first chunk's first slot. The list
// is internal/chunks' type, whose layout no production caller reads;
// reflection reads its unexported fields here, as arenaBooks reads the arena.
func logChunks(l *Log) (held [][]Entry, used, base int) {
	v := reflect.ValueOf(&l.list).Elem()
	cs := v.FieldByName("chunks")
	for k := range cs.Len() {
		c := cs.Index(k)
		held = append(held, unsafe.Slice((*Entry)(c.UnsafePointer()), c.Len()))
	}
	return held, int(v.FieldByName("used").Int()), int(v.FieldByName("first").Int()) * logChunkLen
}

// zeroChunk is a chunk as the list clears one.
var zeroChunk [logChunkLen]Entry

// chunkVacant reports whether every slot of c, at most a chunk, is zero: its
// bytes, compared at once, as the audits run after every step.
func chunkVacant(c []Entry) bool {
	n := len(c) * int(unsafe.Sizeof(Entry{}))
	return n == 0 || bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(&c[0])), n), unsafe.Slice((*byte)(unsafe.Pointer(&zeroChunk)), n))
}

// checkChunks audits the log's chunks: each holds logChunkLen entries, base
// is a chunk's first position and the head lies in or just past the first
// chunk; the chunks in use cover the live range; and every slot outside the
// live range, in the chunks in use and in those kept past them, is zero.
func checkChunks(t *testing.T, l *Log, where string) {
	t.Helper()
	held, used, base := logChunks(l)
	head, tail := l.list.Head(), l.list.Len()
	if len(held) > 0 && (head < base || head-base > logChunkLen || tail > base+used*logChunkLen || used > len(held)) {
		t.Fatalf("%s: base %d, %d of %d chunks in use, live range [%d, %d)", where, base, used, len(held), head, tail)
	}
	for k, c := range held {
		if len(c) != logChunkLen {
			t.Fatalf("%s: chunk %d holds %d entries, want %d", where, k, len(c), logChunkLen)
		}
		// Slots [0, below) of c lie below the head, [past, len(c)) past the tail.
		start := base + k*logChunkLen
		below, past := min(max(head-start, 0), len(c)), min(max(tail-start, 0), len(c))
		if chunkVacant(c[:below]) && chunkVacant(c[past:]) {
			continue
		}
		for i := range c {
			if (i < below || i >= past) && !vacant(&c[i]) {
				t.Fatalf("%s: dead position %d still holds %v", where, start+i, c[i].Hdr)
			}
		}
		t.Fatalf("%s: a dead slot of chunk %d holds a stale length or capacity", where, k)
	}
}

// TestLogModel drives Log and refLog with the same random program — in-order
// and out-of-order inserts, same-header replacements, payloads from empty to
// larger than a chunk, RemoveFrom and TrimBelow at random cuts — and after
// every step compares Len, Get, both Ranges, Last and the bytes of every live
// payload, and audits the list's chunks. The program also aims at chunk
// edges: a trim and a RemoveFrom whose cut is exactly a chunk's first
// position, a log emptied and refilled, a middle insert whose shift crosses
// into the next chunk, and a reset followed by a replay longer than what the
// log held. An arena chunk recycled under a live entry, a miscounted arena
// chunk, a list chunk reused under a live entry or a stale slot left in one
// shows up as a payload that changed or a dead slot that is not zero.
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
	seeds := int64(200)
	if testing.Short() {
		seeds = 50
	}
	// How often the program hit each chunk edge, over all seeds.
	var edges struct{ trim, remove, refill, cross, replay int }
	// Payloads are cut from random bytes at a random offset: cheaper than
	// drawing each afresh, and two entries' bytes still differ.
	src := make([]byte, 4*logChunk)
	rand.New(rand.NewSource(0)).Read(src)
	buf := make([]byte, 2*logChunk)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l Log
		var ref refLog
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
			copy(p, src[rng.Intn(len(src)-n+1):])
			return p
		}
		insert := func(c uint32) {
			e := Entry{Hdr: hdr(1, 1, c), Payload: payload()}
			if p, tail := l.search(e.Hdr), l.list.Len(); l.Get(e.Hdr) == nil && p < tail && p/logChunkLen != tail/logChunkLen {
				edges.cross++
			}
			l.Insert(e)
			ref.Insert(e)
			clear(e.Payload) // the caller's buffer is reused at once
		}
		// edge returns a chunk's first position strictly inside the live
		// range, if the range holds one.
		edge := func() (int, bool) {
			p, tail := (l.list.Head()/logChunkLen+1)*logChunkLen, l.list.Len()
			if p >= tail {
				return 0, false
			}
			return p + logChunkLen*rng.Intn((tail-1-p)/logChunkLen+1), true
		}
		for step := 0; step < 3000; step++ {
			lo := uint32(0)
			if es := ref.live(); len(es) > 0 {
				lo = es[0].Hdr.Cnt
			}
			switch k := rng.Intn(1000); {
			case k < 520: // in order
				insert(next)
				next++
			case k < 620: // out of order: a gap, filled later or never
				next += uint32(1 + rng.Intn(3))
				insert(next)
				next++
			case k < 720 && next > lo: // replace, fill a gap, or land just below the head
				below := min(lo, 2)
				insert(lo - below + uint32(rng.Intn(int(next-lo+below))))
			case k < 760 && next > lo:
				h := hdr(1, 1, lo+uint32(rng.Intn(int(next-lo)+1)))
				l.RemoveFrom(h)
				ref.RemoveFrom(h)
			case k < 790 && l.Len() > 0: // cut exactly at a chunk's first position, or anywhere when the log spans none
				p, ok := edge()
				if !ok {
					p = l.list.Head() + rng.Intn(l.Len())
				}
				h := l.At(p).Hdr
				if rng.Intn(2) == 0 {
					l.TrimBelow(h)
					ref.TrimBelow(h)
					if ok {
						edges.trim++
					}
				} else {
					l.RemoveFrom(h)
					ref.RemoveFrom(h)
					if ok {
						edges.remove++
					}
				}
			case k < 795: // empty, for the inserts that follow to refill
				if rng.Intn(2) == 0 {
					l.TrimBelow(top)
					ref.TrimBelow(top)
				} else {
					l.RemoveFrom(MsgHdr{})
					ref.RemoveFrom(MsgHdr{})
				}
				edges.refill++
			case k < 798: // a durable restart: reset, then replay more than was held
				n := uint32(l.Len() + 1 + rng.Intn(logChunkLen/4))
				l.reset()
				ref.reset()
				for next = 1; next <= n; next++ {
					insert(next)
				}
				edges.replay++
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
			if es := ref.live(); l.Len() != len(es) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, l.Len(), len(es))
			}
			same(step, "the whole log", rangeClosed(&l, MsgHdr{}, top), ref.live())
			sameEntry(step, "Last", l.Last(), ref.Last())
			a, b := hdr(1, 1, lo+uint32(rng.Intn(int(next-lo)+2))), hdr(1, 1, lo+uint32(rng.Intn(int(next-lo)+2)))
			if b.Less(a) {
				a, b = b, a
			}
			if a != b { // an empty open interval is not a query the replica makes
				same(step, "RangeOpen", rangeOpen(&l, a, b), ref.RangeOpen(a, b))
			}
			same(step, "RangeClosed", rangeClosed(&l, a, b), ref.RangeClosed(a, b))
			sameEntry(step, "Get", l.Get(a), ref.Get(a))
			checkChunks(t, &l, fmt.Sprintf("seed %d step %d", seed, step))
		}
		// The arena's books balance: every live entry is counted in its chunk,
		// every chunk nobody points into is empty and on the free list or open.
		books, open, nfree := arenaBooks(&l)
		live := make([]int, len(books)+1)
		for _, e := range rangeClosed(&l, MsgHdr{}, top) {
			live[e.chunk]++
		}
		free := 0
		for i, c := range books {
			if c.live != live[i+1] {
				t.Fatalf("seed %d: chunk %d counts %d live entries, %d point into it", seed, i+1, c.live, live[i+1])
			}
			if c.live == 0 {
				if c.used != 0 {
					t.Fatalf("seed %d: empty chunk %d still has %d bytes in use", seed, i+1, c.used)
				}
				if uint32(i+1) != open {
					free++
				}
			}
		}
		if free != nfree {
			t.Fatalf("seed %d: %d empty chunks, %d on the free list", seed, free, nfree)
		}
		// Dropping everything returns every arena chunk, leaves at most the
		// head's list chunk in use and none gained, and no slot of any list
		// chunk held points at a payload.
		before, _, _ := logChunks(&l)
		l.TrimBelow(top)
		books, _, nfree = arenaBooks(&l)
		held, used, _ := logChunks(&l)
		if l.Len() != 0 || nfree+1 < len(books) || used > 1 || len(held) > len(before) {
			t.Fatalf("seed %d: after trimming everything, %d entries, %d of %d arena chunks free, %d of %d list chunks in use, %d before",
				seed, l.Len(), nfree, len(books), used, len(held), len(before))
		}
		for _, c := range held {
			if !chunkVacant(c) {
				t.Fatalf("seed %d: an empty log holds a chunk with a slot in use", seed)
			}
		}
	}
	t.Logf("chunk edges hit over %d seeds: %+v", seeds, edges)
	if edges.trim == 0 || edges.remove == 0 || edges.refill == 0 || edges.cross == 0 || edges.replay == 0 {
		t.Fatalf("the program missed a chunk edge: %+v", edges)
	}
}

// TestEntrySize pins the layout the arena's bookkeeping rides on: the chunk id
// fills the padding after the 12-byte header, so an Entry is as large as it
// was without it and a chunk holds logChunkLen entries in 10 KiB.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 40 {
		t.Fatalf("Entry is %d bytes, want 40", n)
	}
}

// TestLogGrowthCopiesNothing: a log that is never trimmed — every replica
// with a WAL — allocates each entry's slot once. 100 000 entries cost their
// 4 MB of slots plus the chunk headers, where the one-slice deque refLog
// models, regrown by append, allocated 22 MB and copied the whole history at
// every regrowth; and a chunk is one allocation per logChunkLen entries.
func TestLogGrowthCopiesNothing(t *testing.T) {
	const n = 100_000
	var l Log
	before, after := memSpan(func() {
		for c := uint32(1); c <= n; c++ {
			l.Insert(Entry{Hdr: hdr(1, 1, c)})
		}
	})
	slots := uint64(n * unsafe.Sizeof(Entry{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > slots*5/4 {
		t.Fatalf("%d entries allocated %d bytes, want <= %d: their slots and a quarter", n, got, slots*5/4)
	}
	if got, want := after.Mallocs-before.Mallocs, uint64(n/logChunkLen+64); got > want {
		t.Fatalf("%d entries took %d allocations, want <= %d", n, got, want)
	}
	t.Logf("%d entries: %d bytes in %d allocations", n, after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs)
}

// TestLogSteadyStateAllocFree: a log that is trimmed as it grows — a fixed
// window of 1000-byte entries, trimmed every few inserts as pushCommitRow
// does — cycles through the arena chunks and the list chunks it already has
// and allocates nothing, however long it runs: at small windows, at a window
// just inside one list chunk, filling one, spilling into a second, and
// spanning several arena chunks and several list chunks.
func TestLogSteadyStateAllocFree(t *testing.T) {
	for _, window := range []int{31, 32, 33, logChunkLen - 1, logChunkLen, logChunkLen + 1, 4 * logChunkLen} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			const every = 8
			var l Log
			p := make([]byte, 1000)
			e := Epoch{Round: 1, Ldr: 1}
			cnt := uint32(0)
			step := func() {
				cnt++
				l.Insert(Entry{Hdr: MsgHdr{E: e, Cnt: cnt}, Payload: p})
				if cnt%every == 0 && int(cnt) > window {
					l.TrimBelow(MsgHdr{E: e, Cnt: cnt - uint32(window)})
				}
			}
			for i := 0; i < 8*window+2*logChunkLen; i++ { // past two list chunks: the steady state
				step()
			}
			books, _, _ := arenaBooks(&l)
			held, _, _ := logChunks(&l)
			chunks, listChunks := len(books), len(held)
			if got := testing.AllocsPerRun(100, func() {
				for i := 0; i < 4*window; i++ {
					step()
				}
			}); got != 0 {
				t.Fatalf("%v allocations per %d inserts at a fixed window, want 0", got, 4*window)
			}
			books, _, _ = arenaBooks(&l)
			if held, _, _ = logChunks(&l); len(books) != chunks || len(held) != listChunks || l.Len() > window+every {
				t.Fatalf("%d arena chunks grew to %d, %d list chunks to %d, %d entries held at window %d",
					chunks, len(books), listChunks, len(held), l.Len(), window)
			}
		})
	}
}
