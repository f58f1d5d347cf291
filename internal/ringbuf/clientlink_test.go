package ringbuf

import (
	"bytes"
	"testing"
	"time"

	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
)

// TestClientLinkReconnect reproduces the completion-vs-visibility gap on a
// client link and its repair. A request posted to a replica that is losing
// power completes at the client's Sender (its wire sequence advances) but is
// dropped at the dead NIC; after the replica recovers, every later request
// lands behind that gap and Requests never surfaces it. Reconnect starts
// the connection over, and the re-sent requests arrive byte for byte, as do
// the acknowledgments that answer them.
func TestClientLinkReconnect(t *testing.T) {
	sim := simnet.New(1)
	f := rdma.NewFabric(sim, rdma.DefaultParams())
	replicas := []*rdma.Node{f.AddNode("r0"), f.AddNode("r1")}
	client := f.AddNode("client")
	l := NewClientLink(client, replicas)
	var acked [][]byte
	l.Start(func(m []byte) { acked = append(acked, append([]byte(nil), m...)) })

	// requests drains replica i's request ring after letting traffic land.
	requests := func(i int) [][]byte {
		sim.RunFor(50 * time.Microsecond)
		var got [][]byte
		l.Requests(i, func(req []byte) { got = append(got, append([]byte(nil), req...)) })
		return got
	}
	want := func(what string, got [][]byte, want ...[]byte) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records %q, want %d", what, len(got), got, len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: record %d = %q, want %q", what, i, got[i], want[i])
			}
		}
	}
	first, lost, later := []byte("00000001 first"), []byte("00000002 lost"), []byte("00000003 later")

	l.Request(0, first)
	want("before the crash", requests(0), first)

	// The record is in flight when the replica loses power.
	l.Request(0, lost)
	replicas[0].Crash()
	sim.RunFor(50 * time.Microsecond)
	replicas[0].Recover()

	l.Request(0, later)
	want("behind the gap", requests(0))
	l.Request(0, lost) // a plain resend lands behind the gap too
	want("resent behind the gap", requests(0))

	l.Reconnect(0)
	want("after Reconnect, before any resend", requests(0))
	l.Request(0, lost)
	l.Request(0, later)
	want("after Reconnect", requests(0), lost, later)

	// The other replica's ring and the acknowledgment rings never had a gap.
	l.Request(1, first)
	want("untouched replica", requests(1), first)
	l.Ack(0, lost)
	l.Ack(1, first)
	l.Ack(0, []byte("short")) // carries no id: ignored
	sim.RunFor(50 * time.Microsecond)
	want("acks at the client", acked, lost[:8], first[:8])
}
