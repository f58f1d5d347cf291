package abcast

import (
	"time"

	"acuerdo/internal/simnet"
)

// Client is the request table and retry loop of a group's external client
// machine, shared by every system's Cluster: it remembers each submitted
// request's completion callback under the request's MsgID, asks the owning
// Cluster to put the request on the wire, and keeps asking until the commit
// acknowledgment arrives.
type Client struct {
	sim     *simnet.Sim
	try     func(id uint64, payload []byte) bool
	pending map[uint64]func()

	// sent holds the re-sends armed after a try that put the request on the
	// wire (they wait timeout), held those armed after one that did not
	// (they wait idle).
	sent, held retryQueue
}

// retryBlockLen is the number of armed re-sends one retryBlock holds.
const retryBlockLen = 128

// armed is one armed re-send: the request it will make again.
type armed struct {
	id      uint64
	payload []byte
}

// retryBlock is a fixed run of a retryQueue's records, linked to the next.
type retryBlock struct {
	recs [retryBlockLen]armed
	next *retryBlock
}

// retryQueue is a FIFO of armed re-sends that all wait the same delay. Each
// push schedules one simulator event, and every event pops the head. That
// pops exactly the record the event was armed for: the events share a delay
// and are scheduled at non-decreasing times with increasing sequence
// numbers, and nothing is cancelled, so they fire in push order. Records
// live in fixed blocks that go to a spare list once read, so arming
// allocates nothing once the queue has held its peak.
type retryQueue struct {
	c          *Client
	d          time.Duration
	head, tail *retryBlock // read from head at hi, write to tail at ti
	hi, ti     int
	spare      *retryBlock
	fire       func() // bound to pop
}

// push arms one re-send of id after the queue's delay.
func (q *retryQueue) push(id uint64, payload []byte) {
	switch {
	case q.tail == nil:
		q.tail = q.block()
		q.head = q.tail
	case q.ti == retryBlockLen:
		b := q.block()
		q.tail.next, q.tail, q.ti = b, b, 0
	}
	q.tail.recs[q.ti] = armed{id, payload}
	q.ti++
	q.c.sim.After(q.d, q.fire)
}

// block returns a spare block, or a new one.
func (q *retryQueue) block() *retryBlock {
	b := q.spare
	if b == nil {
		return new(retryBlock)
	}
	q.spare, b.next = b.next, nil
	return b
}

// pop takes the head record, dropping the queue's reference to its payload,
// and re-sends it if it is still unacknowledged (so that attempt may re-arm
// into the slot just freed).
func (q *retryQueue) pop() {
	b := q.head
	r := b.recs[q.hi]
	b.recs[q.hi] = armed{}
	q.hi++
	switch {
	case b == q.tail && q.hi == q.ti: // empty: rewind the one block
		q.hi, q.ti = 0, 0
	case q.hi == retryBlockLen:
		q.head, q.hi = b.next, 0
		b.next, q.spare = q.spare, b
	}
	if _, ok := q.c.pending[r.id]; ok {
		q.c.send(r.id, r.payload)
	}
}

// NewClient creates a client that sends through try. try routes one request
// and puts it on the wire, reporting whether it did: after true the client
// re-sends once timeout passes without an acknowledgment (a leader change
// lost the request, or it is merely slow — every leader that can receive a
// re-send asks its Sessions table, which re-acknowledges a delivered id and
// drops one in flight, so a retry is never ordered twice; APUS passes a zero
// timeout and never re-sends); after false (no serving replica right now, or
// the system asks to hold the request) it asks again after idle. A zero
// duration never re-arms.
func NewClient(sim *simnet.Sim, try func(id uint64, payload []byte) bool, timeout, idle time.Duration) *Client {
	c := &Client{sim: sim, try: try, pending: make(map[uint64]func())}
	c.sent = retryQueue{c: c, d: timeout}
	c.held = retryQueue{c: c, d: idle}
	c.sent.fire, c.held.fire = c.sent.pop, c.held.pop
	return c
}

// Submit sends payload, whose first 8 bytes must be a unique request id (see
// PutMsgID). done, if non-nil, runs once, when the acknowledgment arrives.
func (c *Client) Submit(payload []byte, done func()) {
	id := MsgID(payload)
	c.pending[id] = done
	c.send(id, payload)
}

// send makes one attempt and arms the next; the armed event is never
// cancelled, it finds the request acknowledged and does nothing.
func (c *Client) send(id uint64, payload []byte) {
	q := &c.held
	if c.try(id, payload) {
		q = &c.sent
	}
	if q.d > 0 {
		q.push(id, payload)
	}
}

// Ack completes the request whose id heads m and forgets it. Acknowledgments
// for unknown ids — never submitted, or already acknowledged, as the
// duplicates a retry produces are — are ignored. Its signature is a
// tcpnet.Conn handler's, so TCP systems pass it straight to NewEnsemble.
func (c *Client) Ack(m []byte) {
	id := MsgID(m)
	done, ok := c.pending[id]
	if !ok {
		return
	}
	delete(c.pending, id)
	if done != nil {
		done()
	}
}
