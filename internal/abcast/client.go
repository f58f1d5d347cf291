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
	timeout time.Duration
	idle    time.Duration
	pending map[uint64]func()

	retryFree []*retry
}

// retry is one armed re-send: what a per-attempt closure would capture.
// Records are free-listed on the Client and fire is bound once, when the
// record is created, so arming allocates nothing in steady state.
type retry struct {
	c       *Client
	id      uint64
	payload []byte
	fire    func() // bound to run
}

// run recycles r, dropping its payload reference, before it re-sends (so the
// attempt it makes re-arms with the same record).
func (r *retry) run() {
	c, id, payload := r.c, r.id, r.payload
	r.payload = nil
	c.retryFree = append(c.retryFree, r)
	if _, ok := c.pending[id]; ok {
		c.send(id, payload)
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
	return &Client{sim: sim, try: try, timeout: timeout, idle: idle, pending: make(map[uint64]func())}
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
	d := c.idle
	if c.try(id, payload) {
		d = c.timeout
	}
	if d <= 0 {
		return
	}
	var r *retry
	if n := len(c.retryFree); n > 0 {
		r = c.retryFree[n-1]
		c.retryFree = c.retryFree[:n-1]
	} else {
		r = &retry{c: c}
		r.fire = r.run
	}
	r.id, r.payload = id, payload
	c.sim.After(d, r.fire)
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
