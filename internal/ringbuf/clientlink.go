package ringbuf

import (
	"time"

	"acuerdo/internal/rdma"
)

// ClientLink is the ring pair between one external client machine and the
// replicas it talks to, as the three RDMA systems wire it: a request Sender
// at the client feeding a ring at every replica, and an acknowledgment
// Sender at every replica feeding a ring at the client. Replicas are
// addressed by their index in NewClientLink's slice.
type ClientLink struct {
	client *rdma.Node
	reqOut *Sender     // client -> each replica
	reqIn  []*Receiver // request ring tail at replica i
	ackOut []*Sender   // replica i -> client
	ackIn  []*Receiver // ack ring tails at the client
}

// NewClientLink builds the rings (DefaultConfig: 1 MiB, single-write,
// backlogged) between client and replicas.
func NewClientLink(client *rdma.Node, replicas []*rdma.Node) *ClientLink {
	l := &ClientLink{client: client, reqOut: NewSender(client, DefaultConfig())}
	for _, r := range replicas {
		l.reqIn = append(l.reqIn, l.reqOut.AddPeer(r))
		ack := NewSender(r, DefaultConfig())
		l.ackOut = append(l.ackOut, ack)
		l.ackIn = append(l.ackIn, ack.AddPeer(client))
	}
	return l
}

// Start boots the client's poll loop, which hands every acknowledgment
// arriving from any replica to ack (abcast.Client.Ack). m is a view into the
// acknowledgment ring, valid only until ack returns (see the package comment).
func (l *ClientLink) Start(ack func(m []byte)) {
	l.client.Proc.PollLoop(500*time.Nanosecond, 100*time.Nanosecond, func() {
		for _, in := range l.ackIn {
			for _, m := range in.Poll(0) {
				ack(m)
			}
			in.ReturnCredits()
		}
	})
}

// Request charges the client's CPU for one submission and puts the request
// on replica to's request ring.
func (l *ClientLink) Request(to int, payload []byte) {
	l.client.Proc.Charge(300 * time.Nanosecond)
	if _, err := l.reqOut.Send(l.reqOut.ids[to], payload); err != nil {
		panic("ringbuf: client request failed: " + err.Error())
	}
}

// Requests hands every request that has arrived at replica i to fn, in
// order, then returns the ring credits to the client. Call it from replica
// i's poll loop. req is a view into the request ring, and the credits let
// the client overwrite it: an fn that keeps req past its own return copies
// it first (see the package comment).
func (l *ClientLink) Requests(i int, fn func(req []byte)) {
	for _, req := range l.reqIn[i].Poll(0) {
		fn(req)
	}
	l.reqIn[i].ReturnCredits()
}

// Ack acknowledges, from replica i, the request whose 8-byte id heads
// payload; a payload too short to carry one did not come from the client.
func (l *ClientLink) Ack(i int, payload []byte) {
	if len(payload) < 8 {
		return
	}
	if _, err := l.ackOut[i].Send(l.client.ID, payload[:8]); err != nil {
		panic("ringbuf: client ack failed: " + err.Error())
	}
}

// Reconnect re-establishes the client's connection to replica i after that
// replica rebooted: the request ring, the credit word and both endpoints'
// cursors start over from zero. A request posted as the replica lost power
// was dropped at its dead NIC although the client's Sender had advanced its
// wire sequence, and the Receiver would wait at that gap forever; whatever
// was queued or unacknowledged is re-sent by the client's retry.
func (l *ClientLink) Reconnect(i int) {
	in, ps := l.reqIn[i], l.reqOut.peer[l.reqOut.ids[i]]
	in.mr.Zero()
	in.creditMR.Zero()
	*in = Receiver{mr: in.mr, creditQP: in.creditQP, creditMR: in.creditMR}
	*ps = peerState{id: ps.id, qp: ps.qp, ring: ps.ring, creditMR: ps.creditMR}
}
