// Package ringview exercises the ring-view analyzer: what Receiver.Poll
// returns, and the []byte a ClientLink hands its callbacks, are views into
// ring memory that die when the slot is released — storing one where it
// outlives the poll needs a copy.
package ringview

import (
	"bytes"
	"encoding/binary"
	"time"

	"acuerdo/internal/ringbuf"
	"acuerdo/internal/simnet"
)

type entry struct {
	idx     uint64
	payload []byte
}

type cluster struct {
	sim   *simnet.Sim
	link  *ringbuf.ClientLink
	in    *ringbuf.Receiver
	queue [][]byte
	pend  []entry
	byID  map[uint64][]byte
	last  []byte
	n     int
	id    uint64
}

var lastSeen []byte

// apusPreFix is APUS's leaderPoll before the retention fix: the request waits
// in queue long after Requests has returned its credits.
func (c *cluster) apusPreFix() {
	c.link.Requests(0, func(req []byte) { c.queue = append(c.queue, req) }) // want `a ring view is stored into c.queue`
}

// apusFixed keeps a copy.
func (c *cluster) apusFixed() {
	c.link.Requests(0, func(req []byte) { c.queue = append(c.queue, append([]byte(nil), req...)) })
}

// ackKept parks an acknowledgment view from the client's poll loop.
func (c *cluster) ackKept() {
	c.link.Start(func(m []byte) {
		c.last = m // want `a ring view is stored into c.last`
	})
}

// pollKept stores elements of a polled batch, and values derived from them,
// in a field, a map, a package variable and a field-held slice of structs.
func (c *cluster) pollKept() {
	for _, rec := range c.in.Poll(0) {
		c.last = rec[1:] // want `a ring view is stored into c.last`
		payload := rec[1:]
		c.byID[binary.LittleEndian.Uint64(rec)] = payload        // want `a ring view is stored into c.byID\[`
		lastSeen = payload                                       // want `a ring view is stored into lastSeen`
		c.pend = append(c.pend, entry{idx: 1, payload: payload}) // want `a ring view is stored into c.pend`
	}
	recs := c.in.Poll(4)
	if len(recs) > 0 {
		c.last = recs[0] // want `a ring view is stored into c.last`
	}
	c.queue = append(c.queue, recs...) // want `a ring view is stored into c.queue`
}

// derechoDrain is derecho's drain with a mutant from DESIGN §6.6's corpus
// that no test or lane kills: the pending message keeps the view. A sender
// frees a slot once every member has received the message, which can be
// before this node delivers it, so the payload can be overwritten while it
// waits in pend.
func (c *cluster) derechoDrain() {
	for _, rec := range c.in.Poll(0) {
		payload := rec[1:]
		pm := entry{idx: 1}
		pm.payload = payload // want `a ring view is stored into pm.payload`
		c.pend = append(c.pend, pm)
	}
}

// decode stands for a parser that returns views into its argument.
func decode(rec []byte) (id uint64, payload []byte) {
	return binary.LittleEndian.Uint64(rec), rec[8:]
}

// derivedThroughCall: what a call returns for a view is a view if its type
// can carry one; an integer is not.
func (c *cluster) derivedThroughCall() {
	for _, rec := range c.in.Poll(0) {
		id, payload := decode(rec)
		c.id = id
		c.n = len(rec)
		c.last = payload              // want `a ring view is stored into c.last`
		c.last = bytes.TrimSpace(rec) // want `a ring view is stored into c.last`
	}
}

// deferred captures a view in a closure that runs in a later event.
func (c *cluster) deferred(use func([]byte)) {
	for _, rec := range c.in.Poll(0) {
		c.sim.PostAfter(time.Microsecond, func() {
			use(rec) // want `ring view rec is captured by a closure that runs in a later event`
		})
		kept := bytes.Clone(rec)
		c.sim.PostAfter(time.Microsecond, func() { use(kept) })
	}
}

// copied shows every sanctioned way out, and that callees take views freely.
func (c *cluster) copied(insert func([]byte)) {
	for _, rec := range c.in.Poll(0) {
		insert(rec)
		c.last = append([]byte(nil), rec...)
		c.last = bytes.Clone(rec[1:])
		c.last = append(c.last[:0], rec...)
		buf := make([]byte, len(rec))
		copy(buf, rec)
		c.last = buf
		c.byID[1] = []byte(string(rec))
		pm := entry{idx: 2}
		pm.payload = append([]byte(nil), rec...)
		c.pend = append(c.pend, pm)
		var local [][]byte
		local = append(local, rec)
		_ = local
	}
}

// rebound: a variable that held a view and was rebound to a copy is clean
// from there on; on the path that skipped the copy it is still a view.
func (c *cluster) rebound(skip bool) {
	recs := c.in.Poll(0)
	if len(recs) == 0 {
		return
	}
	first := recs[0]
	if !skip {
		first = bytes.Clone(first)
	}
	c.last = first // want `a ring view is stored into c.last`
	first = bytes.Clone(first)
	c.last = first
}

// localThenKept: a local collection of views is still views when it is
// finally stored.
func (c *cluster) localThenKept() {
	var local [][]byte
	for _, rec := range c.in.Poll(0) {
		local = append(local, rec)
	}
	c.queue = local // want `a ring view is stored into c.queue`
}
