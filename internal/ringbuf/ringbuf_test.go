package ringbuf

import (
	"bytes"
	"fmt"
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
		all = append(all, recvs[0].Poll(0)...)
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

// TestSendPollAllocFree pins the send side of a record, staging through
// landing, at zero allocations in both wire formats (one per-Sender scratch
// record, copied into the wire frame by QP.Write), and a full Send+Poll at no
// more than the receiver's two per record: the payload copy and the batch
// slice.
func TestSendPollAllocFree(t *testing.T) {
	const batch = 64
	for _, twoWrite := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.TwoWrite = twoWrite
		sim, s, recvs, _ := setup(1, cfg)
		id := recvs[0].mr.Node.ID
		payload := make([]byte, 100)
		send := func() {
			for i := 0; i < batch; i++ {
				if _, err := s.Send(id, payload); err != nil {
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
		if avg := testing.AllocsPerRun(20, send); avg != 0 {
			t.Fatalf("twoWrite=%v: %d Sends allocate %.1f objects, want 0", twoWrite, batch, avg)
		}
		recvs[0].Poll(0)
		s.Release(id, recvs[0].Consumed())
		if avg := testing.AllocsPerRun(20, func() { send(); drain() }); avg > 2*batch {
			t.Fatalf("twoWrite=%v: Send+Poll allocates %.1f objects per %d records, want <= 2 each", twoWrite, avg, batch)
		}
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
				got = append(got, r.Poll(0)...)
				s.Release(id, r.Consumed())
			}
		}
		for i := 0; i < 100 && len(got) < len(want); i++ {
			sim.RunFor(time.Millisecond)
			got = append(got, r.Poll(0)...)
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
