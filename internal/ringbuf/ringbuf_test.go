package ringbuf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
)

func setup(nPeers int, cfg Config) (*simnet.Sim, *Sender, []*Receiver, *rdma.Fabric) {
	sim := simnet.New(1)
	p := rdma.DefaultParams()
	p.LinkJitter = nil
	f := rdma.NewFabric(sim, p)
	sender := f.AddNode("sender")
	s := NewSender(sender, cfg)
	recvs := make([]*Receiver, nPeers)
	for i := 0; i < nPeers; i++ {
		recvs[i] = s.AddPeer(f.AddNode(fmt.Sprintf("r%d", i)))
	}
	return sim, s, recvs, f
}

func TestSendReceive(t *testing.T) {
	sim, s, recvs, _ := setup(1, DefaultConfig())
	want := [][]byte{[]byte("alpha"), []byte("bravo"), []byte("charlie")}
	for _, m := range want {
		if _, err := s.Send(recvs[0].mr.Node.ID, m); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(time.Millisecond)
	got := recvs[0].Poll(0)
	if len(got) != len(want) {
		t.Fatalf("received %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("msg %d = %q, want %q", i, got[i], want[i])
		}
	}
	if recvs[0].Consumed() != 3 {
		t.Fatalf("consumed = %d", recvs[0].Consumed())
	}
}

func TestBroadcast(t *testing.T) {
	sim, s, recvs, _ := setup(3, DefaultConfig())
	idx, err := s.Broadcast([]byte("hello"))
	if err != nil || idx != 1 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
	sim.RunFor(time.Millisecond)
	for i, r := range recvs {
		got := r.Poll(0)
		if len(got) != 1 || string(got[0]) != "hello" {
			t.Fatalf("receiver %d got %q", i, got)
		}
	}
}

func TestReceiverSideBatching(t *testing.T) {
	sim, s, recvs, _ := setup(1, DefaultConfig())
	for i := 0; i < 50; i++ {
		s.Send(recvs[0].mr.Node.ID, []byte{byte(i)})
	}
	sim.RunFor(time.Millisecond)
	// One poll drains the whole accumulated batch.
	got := recvs[0].Poll(0)
	if len(got) != 50 {
		t.Fatalf("batch = %d, want 50", len(got))
	}
	for i, m := range got {
		if m[0] != byte(i) {
			t.Fatalf("out of order at %d: %d", i, m[0])
		}
	}
}

func TestPollLimit(t *testing.T) {
	sim, s, recvs, _ := setup(1, DefaultConfig())
	for i := 0; i < 10; i++ {
		s.Send(recvs[0].mr.Node.ID, []byte{byte(i)})
	}
	sim.RunFor(time.Millisecond)
	if got := recvs[0].Poll(4); len(got) != 4 {
		t.Fatalf("limited poll = %d, want 4", len(got))
	}
	if got := recvs[0].Poll(0); len(got) != 6 {
		t.Fatalf("second poll = %d, want 6", len(got))
	}
}

func TestWraparound(t *testing.T) {
	cfg := Config{Bytes: 256, Backlog: false}
	sim, s, recvs, _ := setup(1, cfg)
	id := recvs[0].mr.Node.ID
	// Repeatedly fill and drain so the write offset laps the ring many times.
	total := 0
	for round := 0; round < 40; round++ {
		sent := 0
		for {
			msg := []byte{byte(total % 251), byte(total >> 8), byte(total >> 16)}
			if _, err := s.Send(id, msg); err == ErrRingFull {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			total++
			sent++
		}
		if sent == 0 {
			t.Fatal("ring full immediately")
		}
		sim.RunFor(time.Millisecond)
		got := recvs[0].Poll(0)
		if len(got) != sent {
			t.Fatalf("round %d: got %d, want %d", round, len(got), sent)
		}
		s.Release(id, recvs[0].Consumed())
	}
	if total < 100 {
		t.Fatalf("too few messages exercised: %d", total)
	}
}

func TestRingFullWithoutBacklog(t *testing.T) {
	cfg := Config{Bytes: 128, Backlog: false}
	_, s, recvs, _ := setup(1, cfg)
	id := recvs[0].mr.Node.ID
	var err error
	for i := 0; i < 100; i++ {
		if _, err = s.Send(id, make([]byte, 20)); err != nil {
			break
		}
	}
	if err != ErrRingFull {
		t.Fatalf("err = %v, want ErrRingFull", err)
	}
}

// testPayload returns a payload whose length and every byte depend on i, so
// a record staged in a reused buffer shows any byte left over from the
// longer record staged before it.
func testPayload(i int) []byte {
	return bytes.Repeat([]byte{byte(i + 1)}, 1+(i*7)%23)
}

// keep appends copies of a polled batch to all: the views die at the Release
// that follows.
func keep(all, batch [][]byte) [][]byte {
	for _, m := range batch {
		all = append(all, append([]byte(nil), m...))
	}
	return all
}

func TestBacklogFlushOnRelease(t *testing.T) {
	cfg := Config{Bytes: 128, Backlog: true}
	sim, s, recvs, _ := setup(1, cfg)
	id := recvs[0].mr.Node.ID
	for i := 0; i < 30; i++ {
		if _, err := s.Send(id, testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Backlogged(id) == 0 {
		t.Fatal("expected backlog on tiny ring")
	}
	var all [][]byte
	for i := 0; i < 50 && len(all) < 30; i++ {
		sim.RunFor(time.Millisecond)
		all = keep(all, recvs[0].Poll(0))
		s.Release(id, recvs[0].Consumed())
	}
	if len(all) != 30 {
		t.Fatalf("delivered %d, want 30 (backlog must flush)", len(all))
	}
	for i, m := range all {
		if !bytes.Equal(m, testPayload(i)) {
			t.Fatalf("message %d = %x, want %x", i, m, testPayload(i))
		}
	}
}

func TestTooLarge(t *testing.T) {
	cfg := Config{Bytes: 128, Backlog: true}
	_, s, recvs, _ := setup(1, cfg)
	if _, err := s.Send(recvs[0].mr.Node.ID, make([]byte, 100)); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestTooManyParts(t *testing.T) {
	_, s, recvs, _ := setup(1, DefaultConfig())
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "3-part record") {
			t.Fatalf("a gather list past maxParts: recovered %q", msg)
		}
	}()
	s.Send(recvs[0].mr.Node.ID, []byte{1}, []byte{2}, []byte{3})
}

func TestTwoWriteMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TwoWrite = true
	sim, s, recvs, f := setup(2, cfg)
	sender := f.Node(0)
	for i := 0; i < 10; i++ {
		if _, err := s.Broadcast(testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(time.Millisecond)
	for _, r := range recvs {
		got := r.Poll(0)
		if len(got) != 10 {
			t.Fatalf("two-write delivery = %d, want 10", len(got))
		}
		for i, m := range got {
			if !bytes.Equal(m, testPayload(i)) {
				t.Fatalf("message %d = %x, want %x", i, m, testPayload(i))
			}
		}
	}
	// Two verbs per message and peer (the Derecho cost the paper calls out).
	if sender.Writes != 40 {
		t.Fatalf("writes = %d, want 40", sender.Writes)
	}
}

// TestSendPollAllocFree pins a record, Send through landing through Poll and
// Release, at zero allocations in both wire formats, one part or a gather
// list: the ring header and the parts are gathered into the pooled wire frame
// by QP.Write, Poll returns views in a batch slice it reuses, and the in-flight
// queue rewinds when it drains.
func TestSendPollAllocFree(t *testing.T) {
	const batch = 64
	for _, twoWrite := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.TwoWrite = twoWrite
		sim, s, recvs, _ := setup(1, cfg)
		id := recvs[0].mr.Node.ID
		hdr, payload := make([]byte, 13), make([]byte, 100)
		send := func() {
			for i := 0; i < batch; i += 2 {
				if _, err := s.Send(id, payload); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Send(id, hdr, payload); err != nil {
					t.Fatal(err)
				}
			}
			sim.RunFor(time.Millisecond)
		}
		drain := func() {
			if got := recvs[0].Poll(0); len(got) != batch {
				t.Fatalf("polled %d records, want %d", len(got), batch)
			}
			s.Release(id, recvs[0].Consumed())
		}
		send()
		drain()
		if avg := testing.AllocsPerRun(20, func() { send(); drain() }); avg != 0 {
			t.Fatalf("twoWrite=%v: Send+Poll+Release allocates %.1f objects per %d records, want 0", twoWrite, avg, batch)
		}
	}
}

// TestPollReturnsViews pins the buffer-ownership rule of the package comment:
// a polled record is a slice of the ring's registered memory, it reads intact
// through later sends for as long as its slot is unreleased, and once released
// the sender's wrap overwrites it in place.
func TestPollReturnsViews(t *testing.T) {
	cfg := Config{Bytes: 256, Backlog: true}
	sim, s, recvs, _ := setup(1, cfg)
	r, id := recvs[0], recvs[0].mr.Node.ID
	first := bytes.Repeat([]byte{0x11}, 40)
	if _, err := s.Send(id, first[:3], first[3:]); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Millisecond)
	got := r.Poll(0)
	if len(got) != 1 || !bytes.Equal(got[0], first) {
		t.Fatalf("polled %x, want one record %x", got, first)
	}
	view := got[0]
	if &view[0] != &r.mr.Buf[headerSize] {
		t.Fatal("polled record does not alias the ring MR")
	}
	if cap(view) != len(view) {
		t.Fatalf("view has cap %d beyond its %d bytes: an append would write into the ring", cap(view), len(view))
	}

	// Unreleased: the sender fills the rest of the ring and backlogs the
	// remainder rather than touch the slot.
	for i := 0; i < 8; i++ {
		if _, err := s.Send(id, bytes.Repeat([]byte{byte(0x20 + i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(time.Millisecond)
	if s.Backlogged(id) == 0 {
		t.Fatal("eight more records fit a 256-byte ring with the first unreleased")
	}
	if !bytes.Equal(view, first) {
		t.Fatalf("unreleased view changed under later sends: %x", view)
	}

	// Released: the backlog wraps onto the slot.
	for i := 0; i < 10 && s.Backlogged(id) > 0; i++ {
		r.Poll(0)
		s.Release(id, r.Consumed())
		sim.RunFor(time.Millisecond)
	}
	if s.Backlogged(id) > 0 {
		t.Fatal("backlog never flushed")
	}
	if bytes.Equal(view, first) {
		t.Fatal("released view still reads the old record after the ring wrapped over it")
	}
}

// TestPollCorruptLength: a length word that runs the record past the end of
// the ring is reported with its offset, not as a bare slice-bounds panic —
// including one that is smaller than the ring, which the sender never writes
// (placement wraps first).
func TestPollCorruptLength(t *testing.T) {
	cfg := Config{Bytes: 256, Backlog: true}
	sim, s, recvs, _ := setup(1, cfg)
	r, id := recvs[0], recvs[0].mr.Node.ID
	for i := 0; i < 2; i++ {
		if _, err := s.Send(id, make([]byte, 88)); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(time.Millisecond)
	// The second record sits at offset 100 with 144 bytes behind its header.
	binary.LittleEndian.PutUint32(r.mr.Buf[100+8:], 145)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "corrupt record at offset 100") || !strings.Contains(msg, "length 145") {
			t.Fatalf("Poll over a corrupt length: recovered %q", msg)
		}
	}()
	r.Poll(0)
}

// TestQueuesDoNotSlide pins the head-indexed in-flight and backlog queues. At
// window 1 (send, land, poll, release, repeat) neither ever reallocates; under
// a full ring, records that pass through both queues across many partial
// releases still arrive once each, in order.
func TestQueuesDoNotSlide(t *testing.T) {
	cfg := Config{Bytes: 256, Backlog: true}
	sim, s, recvs, _ := setup(1, cfg)
	r, id := recvs[0], recvs[0].mr.Node.ID
	ps := s.peer[id]
	step := func(i int) {
		if _, err := s.Send(id, testPayload(i)); err != nil {
			t.Fatal(err)
		}
		sim.RunFor(10 * time.Microsecond)
		if got := r.Poll(0); len(got) != 1 || !bytes.Equal(got[0], testPayload(i)) {
			t.Fatalf("record %d: polled %x", i, got)
		}
		s.Release(id, r.Consumed())
	}
	step(0)
	inflight := &ps.inflight.buf[:1][0]
	for i := 1; i < 1000; i++ {
		step(i)
	}
	if &ps.inflight.buf[:1][0] != inflight || cap(ps.inflight.buf) > 4 {
		t.Fatalf("in-flight queue reallocated at window 1 (cap %d)", cap(ps.inflight.buf))
	}
	if ps.inflight.len() != 0 || ps.backlog.len() != 0 || ps.inflightBytes != 0 {
		t.Fatalf("queues not empty at rest: %d in flight (%d B), %d backlogged", ps.inflight.len(), ps.inflightBytes, ps.backlog.len())
	}

	// Full ring: 200 records against room for about eight, released one
	// poll at a time.
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := s.Send(id, testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Backlogged(id) < n-16 {
		t.Fatalf("backlog = %d, want most of %d", s.Backlogged(id), n)
	}
	next := 0
	for round := 0; round < 4*n && next < n; round++ {
		sim.RunFor(10 * time.Microsecond)
		for _, m := range r.Poll(1) {
			if !bytes.Equal(m, testPayload(next)) {
				t.Fatalf("record %d = %x, want %x", next, m, testPayload(next))
			}
			next++
		}
		s.Release(id, r.Consumed())
	}
	if next != n || s.Backlogged(id) != 0 {
		t.Fatalf("delivered %d of %d, %d still backlogged", next, n, s.Backlogged(id))
	}
	if c := cap(ps.backlog.buf); c > 2*n {
		t.Fatalf("backlog queue grew to cap %d for %d records", c, n)
	}
}

func TestSingleWriteVerbCount(t *testing.T) {
	sim, s, recvs, f := setup(1, DefaultConfig())
	for i := 0; i < 10; i++ {
		s.Send(recvs[0].mr.Node.ID, []byte{byte(i)})
	}
	sim.RunFor(time.Millisecond)
	recvs[0].Poll(0)
	if f.Node(0).Writes != 10 {
		t.Fatalf("writes = %d, want 10 (one verb per message)", f.Node(0).Writes)
	}
}

func TestUnknownPeer(t *testing.T) {
	_, s, _, _ := setup(1, DefaultConfig())
	if _, err := s.Send(99, []byte{1}); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestCanSend(t *testing.T) {
	cfg := Config{Bytes: 128, Backlog: false}
	_, s, recvs, _ := setup(1, cfg)
	id := recvs[0].mr.Node.ID
	if !s.CanSend(id, 20) {
		t.Fatal("fresh ring reports full")
	}
	for {
		if _, err := s.Send(id, make([]byte, 20)); err != nil {
			break
		}
	}
	if s.CanSend(id, 20) {
		t.Fatal("full ring reports sendable")
	}
}

func TestExactlyOnceInOrderProperty(t *testing.T) {
	// Property: any sequence of variable-size messages through a small
	// ring (with drains and releases interleaved) arrives exactly once,
	// in order, regardless of wrap positions.
	check := func(sizes []uint8, drainEvery uint8) bool {
		de := int(drainEvery)%7 + 1
		sim := simnet.New(3)
		p := rdma.DefaultParams()
		f := rdma.NewFabric(sim, p)
		s := NewSender(f.AddNode("s"), Config{Bytes: 512, Backlog: true})
		r := s.AddPeer(f.AddNode("r"))
		id := 1
		var got [][]byte
		var want [][]byte
		for i, sz := range sizes {
			msg := make([]byte, int(sz)%200+1)
			msg[0] = byte(i)
			want = append(want, msg)
			if _, err := s.Send(id, msg); err != nil {
				return false
			}
			if i%de == 0 {
				sim.RunFor(100 * time.Microsecond)
				got = keep(got, r.Poll(0))
				s.Release(id, r.Consumed())
			}
		}
		for i := 0; i < 100 && len(got) < len(want); i++ {
			sim.RunFor(time.Millisecond)
			got = keep(got, r.Poll(0))
			s.Release(id, r.Consumed())
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestResetPairActsFresh: a sender's peer and its Receiver reset to a new
// generation behave exactly as a pair AddPeer has just built — the same
// records polled, the same message indices, the same backlog and credits —
// whatever the old generation left in flight. A record posted before the
// reset lands after it at an old offset (the first record lands at offset
// zero with sequence 1, where a fresh ring's first record goes), and a credit
// returned before the reset lands after it at the sender; neither is ever
// read as new.
func TestResetPairActsFresh(t *testing.T) {
	cfg := Config{Bytes: 128, Backlog: true}
	for _, tc := range []struct {
		name    string
		history func(sim *simnet.Sim, s *Sender, r *Receiver, to int)
	}{
		{"record in flight", func(_ *simnet.Sim, s *Sender, _ *Receiver, to int) {
			s.Send(to, testPayload(99))
		}},
		{"credit in flight", func(sim *simnet.Sim, s *Sender, r *Receiver, to int) {
			for i := 0; i < 5; i++ {
				s.Send(to, testPayload(50+i))
			}
			sim.RunFor(50 * time.Microsecond)
			r.Poll(0)
			r.ReturnCredits()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsim, fs, frs, _ := setup(1, cfg)
			want := resetScript(fsim, fs, frs[0], frs[0].mr.Node.ID)

			sim, s, rs, _ := setup(1, cfg)
			r, to := rs[0], rs[0].mr.Node.ID
			tc.history(sim, s, r, to)
			r.Reset(1)
			s.ResetPeer(to, 1)
			got := resetScript(sim, s, r, to)
			for i := range max(len(got), len(want)) {
				if i >= len(got) || i >= len(want) || got[i] != want[i] {
					t.Fatalf("step %d of the reset pair differs from a fresh pair's:\n got %q\nwant %q", i, got, want)
				}
			}
		})
	}
}

// resetScript drives one sender-receiver pair through a backlogged ring,
// credit-released, and returns what it observed at each step.
func resetScript(sim *simnet.Sim, s *Sender, r *Receiver, to int) []string {
	var log []string
	note := func(format string, a ...any) { log = append(log, fmt.Sprintf(format, a...)) }
	drain := func() {
		sim.RunFor(50 * time.Microsecond)
		for _, m := range r.Poll(0) {
			note("polled %x", m)
		}
		note("consumed %d", r.Consumed())
	}
	drain()
	for i := 0; i < 20; i++ {
		idx, err := s.Send(to, testPayload(i))
		note("sent %d as %d (%v), %d backlogged", i, idx, err, s.Backlogged(to))
	}
	for i := 0; i < 10; i++ {
		drain()
		r.ReturnCredits()
		sim.RunFor(50 * time.Microsecond)
		note("can send %v, %d backlogged", s.CanSend(to, 8), s.Backlogged(to))
	}
	return log
}
