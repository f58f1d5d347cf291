package acuerdo

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
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
		entries := append([]Entry(nil), l.RangeClosed(from, hdr(1, 1, 20))...)
		apply := func() {
			l.RemoveFrom(from)
			for _, e := range entries {
				l.Insert(e)
			}
		}
		apply()
		snap1 := append([]Entry(nil), l.RangeClosed(MsgHdr{}, hdr(9, 9, 9))...)
		apply()
		snap2 := l.RangeClosed(MsgHdr{}, hdr(9, 9, 9))
		if len(snap1) != len(snap2) {
			t.Fatalf("trial %d: lengths differ", trial)
		}
		for i := range snap1 {
			if snap1[i].Hdr != snap2[i].Hdr {
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
