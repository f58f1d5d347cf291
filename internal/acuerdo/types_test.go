package acuerdo

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEpochOrdering(t *testing.T) {
	cases := []struct {
		a, b Epoch
		cmp  int
	}{
		{Epoch{1, 1}, Epoch{1, 1}, 0},
		{Epoch{1, 1}, Epoch{2, 0}, -1},
		{Epoch{2, 0}, Epoch{1, 5}, 1},
		{Epoch{1, 1}, Epoch{1, 2}, -1},
		{Epoch{0, 0}, Epoch{0, 1}, -1},
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.cmp {
			t.Errorf("%v.Cmp(%v) = %d, want %d", c.a, c.b, got, c.cmp)
		}
		if got := c.b.Cmp(c.a); got != -c.cmp {
			t.Errorf("%v.Cmp(%v) = %d, want %d", c.b, c.a, got, -c.cmp)
		}
	}
}

func TestMsgHdrOrdering(t *testing.T) {
	h := func(r, l, c uint32) MsgHdr { return MsgHdr{E: Epoch{r, PID(l)}, Cnt: c} }
	if !h(1, 1, 5).Less(h(1, 1, 6)) {
		t.Fatal("count ordering broken")
	}
	if !h(1, 1, 99).Less(h(1, 2, 0)) {
		t.Fatal("epoch dominates count")
	}
	if !h(1, 2, 0).Less(h(2, 1, 0)) {
		t.Fatal("round dominates leader")
	}
	if !h(1, 1, 1).LessEq(h(1, 1, 1)) {
		t.Fatal("LessEq not reflexive")
	}
}

func TestHdrTotalOrderProperty(t *testing.T) {
	// Property: Cmp is a total order — antisymmetric and transitive.
	gen := func(r *rand.Rand) MsgHdr {
		return MsgHdr{E: Epoch{uint32(r.Intn(4)), PID(r.Intn(4))}, Cnt: uint32(r.Intn(4))}
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		if a.Cmp(b) != -b.Cmp(a) {
			t.Fatalf("antisymmetry: %v %v", a, b)
		}
		if a.Cmp(b) <= 0 && b.Cmp(c) <= 0 && a.Cmp(c) > 0 {
			t.Fatalf("transitivity: %v %v %v", a, b, c)
		}
		if a.Cmp(a) != 0 {
			t.Fatalf("reflexivity: %v", a)
		}
	}
}

func TestNewBiggerEpoch(t *testing.T) {
	f := func(ar, al, br, bl uint16, self uint8) bool {
		a := Epoch{uint32(ar), PID(al)}
		b := Epoch{uint32(br), PID(bl)}
		e := NewBiggerEpoch(a, b, PID(self))
		return a.Less(e) && b.Less(e) && e.Ldr == PID(self)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVoteOrdering(t *testing.T) {
	v := func(r uint32, l PID, hr, hc uint32) Vote {
		return Vote{ENew: Epoch{r, l}, Acpt: MsgHdr{E: Epoch{hr, 1}, Cnt: hc}}
	}
	if v(1, 1, 1, 5).Cmp(v(2, 0, 0, 0)) >= 0 {
		t.Fatal("epoch must dominate accepted header")
	}
	if v(1, 1, 1, 5).Cmp(v(1, 1, 1, 6)) >= 0 {
		t.Fatal("accepted header must break epoch ties")
	}
}

func TestHdrCodecRoundTrip(t *testing.T) {
	f := func(r, c uint32, l uint16) bool {
		h := MsgHdr{E: Epoch{r, PID(l)}, Cnt: c}
		buf := make([]byte, 12)
		HdrCodec{}.Encode(buf, h)
		var got MsgHdr
		HdrCodec{}.Decode(&got, buf)
		return got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVoteCodecRoundTrip(t *testing.T) {
	f := func(r1, r2, c uint32, l1, l2 uint16) bool {
		v := Vote{ENew: Epoch{r1, PID(l1)}, Acpt: MsgHdr{E: Epoch{r2, PID(l2)}, Cnt: c}}
		buf := make([]byte, 20)
		VoteCodec{}.Encode(buf, v)
		var got Vote
		VoteCodec{}.Decode(&got, buf)
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommitCodecRoundTrip(t *testing.T) {
	f := func(r, c uint32, l uint16, hb uint64) bool {
		row := CommitRow{Hdr: MsgHdr{E: Epoch{r, PID(l)}, Cnt: c}, HB: hb}
		buf := make([]byte, 20)
		CommitCodec{}.Encode(buf, row)
		var got CommitRow
		CommitCodec{}.Decode(&got, buf)
		return got == row
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	hdr := MsgHdr{E: Epoch{3, 2}, Cnt: 17}
	payload := []byte("some payload")
	rec := EncodeMessage(hdr, payload)
	h2, p2, _, _, isDiff, err := DecodeMessage(rec)
	if err != nil || isDiff {
		t.Fatalf("err=%v isDiff=%v", err, isDiff)
	}
	if h2 != hdr || !bytes.Equal(p2, payload) {
		t.Fatalf("round trip: %v %q", h2, p2)
	}
}

// diffOf encodes the diff of entries (in header order) the way becomeLeader
// does, from a log holding them.
func diffOf(hdr, from MsgHdr, entries []Entry) []byte {
	var l Log
	for _, e := range entries {
		l.Insert(e)
	}
	return EncodeDiff(hdr, from, &l, l.list.Head(), l.list.Len())
}

func TestDiffRoundTrip(t *testing.T) {
	hdr := MsgHdr{E: Epoch{5, 3}, Cnt: 0}
	from := MsgHdr{E: Epoch{4, 1}, Cnt: 7}
	entries := []Entry{
		{Hdr: MsgHdr{E: Epoch{4, 1}, Cnt: 8}, Payload: []byte("a")},
		{Hdr: MsgHdr{E: Epoch{4, 1}, Cnt: 9}, Payload: []byte("bc")},
		{Hdr: MsgHdr{E: Epoch{4, 1}, Cnt: 10}, Payload: nil},
	}
	rec := diffOf(hdr, from, entries)
	h2, _, e2, f2, isDiff, err := DecodeMessage(rec)
	if err != nil || !isDiff {
		t.Fatalf("err=%v isDiff=%v", err, isDiff)
	}
	if h2 != hdr || f2 != from || len(e2) != 3 {
		t.Fatalf("hdr=%v from=%v n=%d", h2, f2, len(e2))
	}
	for i := range entries {
		if e2[i].Hdr != entries[i].Hdr || !bytes.Equal(e2[i].Payload, entries[i].Payload) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestDiffRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		entries := make([]Entry, len(payloads))
		for i, p := range payloads {
			entries[i] = Entry{Hdr: MsgHdr{E: Epoch{1, 1}, Cnt: uint32(i + 1)}, Payload: p}
		}
		rec := diffOf(MsgHdr{E: Epoch{2, 2}}, MsgHdr{}, entries)
		_, _, e2, _, isDiff, err := DecodeMessage(rec)
		if err != nil || !isDiff || len(e2) != len(entries) {
			return false
		}
		for i := range entries {
			if !bytes.Equal(e2[i].Payload, entries[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorruptRecords(t *testing.T) {
	bad := EncodeMessage(MsgHdr{E: Epoch{1, 1}, Cnt: 1}, []byte("x"))
	bad[12] = 99
	diff := diffOf(MsgHdr{E: Epoch{1, 1}}, MsgHdr{}, []Entry{{Hdr: MsgHdr{E: Epoch{1, 1}, Cnt: 1}, Payload: []byte("abc")}})
	// A bare diff header whose count field claims entries the record has no
	// bytes for: drainRings promises "corrupt record; drop", so the count
	// must be refused before it sizes anything.
	claims := func(cnt uint32) []byte {
		rec := diffOf(MsgHdr{E: Epoch{1, 1}}, MsgHdr{}, nil)
		binary.LittleEndian.PutUint32(rec[25:], cnt)
		return rec
	}
	for _, c := range []struct {
		name string
		rec  []byte
	}{
		{"short record", []byte{1, 2}},
		{"unknown kind", bad},
		{"truncated diff payload", diff[:len(diff)-2]},
		{"truncated diff entry header", diff[:29+8]},
		{"diff cut inside its count", diff[:27]},
		{"count of 1 in an empty diff", claims(1)},
		{"count of 2^20 in an empty diff", claims(1 << 20)},
		{"count of 2^32-1 in an empty diff", claims(1<<32 - 1)},
	} {
		var entries []Entry
		var err error
		before, after := memSpan(func() { _, _, entries, _, _, err = DecodeMessage(c.rec) })
		if err == nil || entries != nil {
			t.Errorf("%s: accepted (%d entries, err %v)", c.name, len(entries), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
			t.Errorf("%s: refusing a %d-byte record allocated %d bytes", c.name, len(c.rec), got)
		}
	}
}
