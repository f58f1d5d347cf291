// Package ringbuf implements the RDMA ring buffer communication primitive
// used for Acuerdo's broadcast mode (paper §3.2) and by the Derecho and APUS
// baselines.
//
// A ring has a single sender and, per receiver, a registered remote buffer
// that the sender fills with one-sided RDMA writes. Receivers poll their
// current incoming tail until the next record's wire sequence number appears,
// then drain every available record at once — the paper's receiver-side
// batching model. Because RDMA reliable connections deliver writes in FIFO
// order, observing record k implies records < k have landed.
//
// Two wire formats are supported:
//
//   - single-write (Acuerdo): the record header and payload travel in one
//     RDMA write, so a small message costs one minimum-size wire frame;
//   - two-write (Derecho): the payload travels first with a zero sequence
//     word, then a second small write publishes the sequence number —
//     two verbs and two wire frames per message, which is why Derecho is
//     half as bandwidth-efficient for tiny messages (paper §4.1).
//
// Slot reuse is governed by the protocol through Release: Acuerdo releases a
// record once the receiver has accepted it, Derecho only once it is committed
// at all active nodes. When a receiver's ring is full the sender either
// queues to an unbounded per-receiver backlog (Acuerdo: "effectively
// infinite pending messages") or reports ErrRingFull so the protocol can
// stall (Derecho).
//
// Buffer ownership. A record is copied twice on its way, both times by the
// fabric: Send hands the ring header and the caller's parts to QP.Write as one
// gather list, which copies them into the wire frame (the caller may reuse
// every part as soon as Send returns), and the frame lands in the receiver's
// ring (the DMA). Poll then returns views: each record is a slice of the ring's
// registered memory, not a copy. A view is valid until its slot is released to
// the sender — ReturnCredits, or whatever protocol state the sender's Release
// follows, such as Acuerdo's acceptance push — or until the next Poll on the
// same Receiver, which reuses the batch slice. Whoever keeps a record, or any
// part of one, past that point copies it first (append([]byte(nil), v...),
// bytes.Clone, copy into a buffer it owns); the ringview analyzer
// (internal/lint) checks the retention sites it can see. The same rule holds
// for the []byte a ClientLink hands to a Requests or Start callback.
package ringbuf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"acuerdo/internal/rdma"
)

const (
	headerSize = 12 // seq uint64 + len uint32
	wrapMarker = ^uint32(0)

	// maxParts bounds the gather list of one Send — a protocol header and a
	// payload — as max_send_sge does on real verbs; the ring header takes
	// one more entry of the work request.
	maxParts = 2

	// genShift places a ring's generation in the top half of every wire
	// sequence number and credit word (see Sender.ResetPeer): a ring counts
	// its records in the bottom half, from zero at each reset.
	genShift = 32
)

var (
	// ErrRingFull is returned (backlog disabled) when the receiver has not
	// released enough space for the record.
	ErrRingFull = errors.New("ringbuf: ring full")
	// ErrTooLarge is returned for records bigger than half the ring.
	ErrTooLarge = errors.New("ringbuf: record exceeds ring capacity")
)

// Config sizes a ring.
type Config struct {
	// Bytes is the per-receiver ring size in bytes.
	Bytes int
	// TwoWrite selects the Derecho-style data+counter wire format.
	TwoWrite bool
	// Backlog enables unbounded sender-side queueing per receiver instead
	// of ErrRingFull.
	Backlog bool
}

// DefaultConfig returns a 1 MiB single-write ring with backlog enabled.
func DefaultConfig() Config {
	return Config{Bytes: 1 << 20, Backlog: true}
}

// Receiver is the receiving endpoint of a ring on one node. Poll from the
// owning node's event loop.
type Receiver struct {
	mr       *rdma.MR
	off      int
	wireSeq  uint64   // next expected wire sequence
	consumed uint64   // payload records consumed (for Release bookkeeping)
	batch    [][]byte // Poll's result, reused by the next Poll

	creditQP *rdma.QP // back-channel to the sender's credit word
	creditMR *rdma.MR
	returned uint64
	gen      uint32 // the generation Reset last started
}

// Reset starts the ring over as generation gen, the receiving half of
// Sender.ResetPeer: the ring memory is zeroed and the Receiver then behaves
// as one AddPeer has just returned, except that it reads only records of
// generation gen. Reset it before, or at the same instant as, the sender's
// ResetPeer to the same generation; a record or credit of an older
// generation still in flight lands and is never read as new.
func (r *Receiver) Reset(gen uint32) {
	r.mr.Zero()
	*r = Receiver{mr: r.mr, batch: r.batch[:0], creditQP: r.creditQP, creditMR: r.creditMR,
		gen: gen, wireSeq: uint64(gen) << genShift}
}

// ReturnCredits writes the consumed count back to the sender with an
// 8-byte RDMA write, letting it recycle ring space (the FaRM-style credit
// scheme). Protocols that release through higher-level state (Acuerdo's
// acceptance SST, Derecho's receipt counters) never need to call this.
func (r *Receiver) ReturnCredits() {
	if r.creditQP == nil || r.consumed == r.returned {
		return
	}
	r.returned = r.consumed
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(r.gen)<<genShift|r.consumed)
	// A wedged credit channel is tolerable: credits are cumulative, so a
	// later write carries the same information.
	_, _ = r.creditQP.Write(r.creditMR, 0, b[:])
}

// Consumed returns the number of payload messages consumed so far; protocols
// report it back to the sender (directly or via an SST) to release ring
// space.
func (r *Receiver) Consumed() uint64 { return r.consumed }

// Poll drains available records, returning at most limit payloads
// (limit <= 0 means unlimited). Each call returns a receiver-side batch.
//
// The payloads are views into the ring's registered memory, in a batch slice
// the next Poll reuses: each is valid until its slot is released to the sender
// or Poll is called again, and a caller that keeps one longer copies it first
// (see the package comment).
func (r *Receiver) Poll(limit int) [][]byte {
	out := r.batch[:0]
	buf := r.mr.Buf
	for limit <= 0 || len(out) < limit {
		if len(buf)-r.off < headerSize {
			r.off = 0
			continue
		}
		seq := binary.LittleEndian.Uint64(buf[r.off:])
		if seq != r.wireSeq+1 {
			break // nothing new at the tail
		}
		ln := binary.LittleEndian.Uint32(buf[r.off+8:])
		if ln == wrapMarker {
			r.wireSeq++
			r.off = 0
			continue
		}
		// The sender never splits a record across the end of the ring
		// (placement wraps first), so one that runs past it is corrupt.
		start := r.off + headerSize
		if int(ln) > len(buf)-start {
			panic(fmt.Sprintf("ringbuf: corrupt record at offset %d: length %d runs past the %d-byte ring", r.off, ln, len(buf)))
		}
		end := start + int(ln)
		out = append(out, buf[start:end:end])
		r.wireSeq++
		r.consumed++
		r.off = end
	}
	r.batch = out
	return out
}

type inflightRec struct {
	msgIdx uint64
	bytes  int
}

type peerState struct {
	id       int
	qp       *rdma.QP
	ring     *rdma.MR
	creditMR *rdma.MR // local word the receiver writes its consumed count to

	woff          int
	wireSeq       uint64
	msgIdx        uint64 // logical send index (includes backlogged)
	emitIdx       uint64 // wire emission index; == msgIdx when backlog empty
	inflight      fifo[inflightRec]
	inflightBytes int
	backlog       fifo[[]byte]
	gen           uint32 // the generation ResetPeer last started
}

// Sender is the sending endpoint of a ring: one per node, broadcasting to
// any number of receivers.
type Sender struct {
	cfg  Config
	node *rdma.Node
	peer map[int]*peerState
	ids  []int // stable peer order for Broadcast
}

// NewSender creates a sender owned by node.
func NewSender(node *rdma.Node, cfg Config) *Sender {
	if cfg.Bytes < 4*headerSize {
		panic("ringbuf: ring too small")
	}
	return &Sender{cfg: cfg, node: node, peer: make(map[int]*peerState)}
}

// AddPeer registers ring memory on recv and connects to it, returning the
// Receiver handle that recv's protocol instance polls. Peers are keyed by
// their fabric node ID.
func (s *Sender) AddPeer(recv *rdma.Node) *Receiver {
	mr := recv.RegisterMemory(s.cfg.Bytes)
	qp := s.node.Connect(recv)
	qp.SignalEvery = 1000 // the paper signals every thousand messages
	creditMR := s.node.RegisterMemory(8)
	creditQP := recv.Connect(s.node)
	creditQP.SignalEvery = 1024
	ps := &peerState{id: recv.ID, qp: qp, ring: mr, creditMR: creditMR}
	s.peer[recv.ID] = ps
	s.ids = append(s.ids, recv.ID)
	return &Receiver{mr: mr, creditQP: creditQP, creditMR: creditMR}
}

// ResetPeer starts peer to's ring over as generation gen: whatever was in
// flight or queued toward the peer is neither released nor sent any more, the
// credit word is cleared, and the next Send is record 1 at offset zero, as
// on a ring AddPeer has just built. The peer's Receiver is Reset to the same
// generation first, or at the same instant. gen must exceed every generation
// the ring has used (a new ring is generation 0), so that a record or credit
// of an older one still in flight lands and is never read as new: it carries
// a smaller generation in the top half of its sequence or credit word.
func (s *Sender) ResetPeer(to int, gen uint32) {
	ps := s.peer[to]
	ps.creditMR.Zero()
	*ps = peerState{id: ps.id, qp: ps.qp, ring: ps.ring, creditMR: ps.creditMR,
		gen: gen, wireSeq: uint64(gen) << genShift}
}

// pollCredits applies any credit returned by the receiver in the ring's
// current generation.
func (s *Sender) pollCredits(ps *peerState) {
	credit := binary.LittleEndian.Uint64(ps.creditMR.Buf)
	if credit>>genShift == uint64(ps.gen) && credit&(1<<genShift-1) > 0 {
		s.release(ps, credit&(1<<genShift-1))
	}
}

// CanSend reports whether a record of the given payload size fits in peer
// to's ring right now (ignoring backlog).
func (s *Sender) CanSend(to, payloadLen int) bool {
	ps := s.peer[to]
	if ps == nil {
		return false
	}
	s.pollCredits(ps)
	if ps.backlog.len() > 0 {
		return false
	}
	rec := headerSize + payloadLen
	_, waste := s.placement(ps, rec)
	return ps.inflightBytes+waste+rec <= s.cfg.Bytes-headerSize
}

// placement computes where the next record of size rec lands and how many
// bytes a wrap would waste.
func (s *Sender) placement(ps *peerState, rec int) (off, waste int) {
	off = ps.woff
	if off+rec > s.cfg.Bytes {
		waste = s.cfg.Bytes - off
		off = 0
	}
	return off, waste
}

// Send writes one record into peer to's ring (unicast, send_to in the paper):
// the concatenation of parts, at most maxParts of them, gathered by the
// write itself so a caller with a header and a payload need not join them
// first. Every part may be reused once Send returns. It returns the 1-based
// payload message index on that peer's ring. With backlog enabled a full ring
// queues the message instead of failing.
func (s *Sender) Send(to int, parts ...[]byte) (uint64, error) {
	ps := s.peer[to]
	if ps == nil {
		return 0, fmt.Errorf("ringbuf: unknown peer %d", to)
	}
	if len(parts) > maxParts {
		panic(fmt.Sprintf("ringbuf: %d-part record, the gather list holds %d", len(parts), maxParts))
	}
	s.pollCredits(ps)
	rec := headerSize + partsLen(parts)
	if rec > s.cfg.Bytes/2 {
		return 0, ErrTooLarge
	}
	_, waste := s.placement(ps, rec)
	full := ps.inflightBytes+waste+rec > s.cfg.Bytes-headerSize
	if ps.backlog.len() > 0 || full {
		// Preserve FIFO: never bypass queued messages.
		if s.cfg.Backlog {
			ps.msgIdx++
			ps.backlog.push(bytes.Join(parts, nil))
			return ps.msgIdx, nil
		}
		return 0, ErrRingFull
	}
	ps.msgIdx++
	s.emit(ps, parts...)
	return ps.msgIdx, nil
}

func partsLen(parts [][]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// emit performs the wire writes for one record; capacity must be checked.
// Ring header and parts go to QP.Write as one gather list, so the record is
// assembled once, in the wire frame.
func (s *Sender) emit(ps *peerState, parts ...[]byte) {
	payloadLen := partsLen(parts)
	rec := headerSize + payloadLen
	off, waste := s.placement(ps, rec)
	var hdr [headerSize]byte
	if waste > 0 {
		if waste >= headerSize {
			// Explicit wrap marker.
			ps.wireSeq++
			binary.LittleEndian.PutUint64(hdr[:], ps.wireSeq)
			binary.LittleEndian.PutUint32(hdr[8:], wrapMarker)
			s.write(ps, ps.woff, hdr[:])
		}
		// A remainder < headerSize wraps implicitly on both sides.
		ps.woff = 0
	}

	ps.wireSeq++
	ps.emitIdx++
	// An element-wise copy: escape analysis sends whatever the copy builtin
	// moves to the heap, and with it every caller's parts.
	sg := [1 + maxParts][]byte{hdr[:]}
	for i, p := range parts {
		sg[1+i] = p
	}
	n := 1 + len(parts)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(payloadLen))
	if s.cfg.TwoWrite {
		// Derecho style: payload first with a zero sequence word, then a
		// second write publishes the sequence (the "counter").
		binary.LittleEndian.PutUint64(hdr[:8], 0)
		s.write(ps, off, sg[:n]...)
		binary.LittleEndian.PutUint64(hdr[:8], ps.wireSeq)
		s.write(ps, off, hdr[:8])
	} else {
		binary.LittleEndian.PutUint64(hdr[:8], ps.wireSeq)
		s.write(ps, off, sg[:n]...)
	}
	ps.woff = off + rec
	ps.inflight.push(inflightRec{msgIdx: ps.emitIdx, bytes: rec + waste})
	ps.inflightBytes += rec + waste
}

func (s *Sender) write(ps *peerState, off int, parts ...[]byte) {
	if _, err := ps.qp.Write(ps.ring, off, parts...); err != nil && err != rdma.ErrSendQueueFull {
		panic(fmt.Sprintf("ringbuf: write failed: %v", err))
	}
	// ErrSendQueueFull toward a crashed peer is tolerated: RC toward a dead
	// node wedges in reality too, and the protocol layer handles the peer's
	// failure through its own failure detector.
}

// Broadcast sends payload to every peer (send_to_all). It returns the
// per-sender message index (identical across peers when the ring is used
// broadcast-only, as in Acuerdo's normal mode).
func (s *Sender) Broadcast(payload []byte) (uint64, error) {
	var idx uint64
	for _, id := range s.ids {
		i, err := s.Send(id, payload)
		if err != nil {
			return 0, err
		}
		idx = i
	}
	return idx, nil
}

// Release records that peer to has consumed payload messages up to and
// including index upto, freeing ring space and flushing backlog.
func (s *Sender) Release(to int, upto uint64) {
	ps := s.peer[to]
	if ps == nil {
		return
	}
	s.release(ps, upto)
}

func (s *Sender) release(ps *peerState, upto uint64) {
	for ps.inflight.len() > 0 && ps.inflight.front().msgIdx <= upto {
		ps.inflightBytes -= ps.inflight.pop().bytes
	}
	// Flush backlog into freed space, preserving order.
	for ps.backlog.len() > 0 {
		rec := headerSize + len(*ps.backlog.front())
		_, waste := s.placement(ps, rec)
		if ps.inflightBytes+waste+rec > s.cfg.Bytes-headerSize {
			break
		}
		s.emit(ps, ps.backlog.pop())
	}
}

// Backlogged reports how many messages are queued for peer to.
func (s *Sender) Backlogged(to int) int {
	if ps := s.peer[to]; ps != nil {
		return ps.backlog.len()
	}
	return 0
}

// fifo is a queue popped by advancing a head index, not by re-slicing: the
// backing array is rewound whenever the queue drains and compacted, once the
// consumed prefix is at least half of it, before it would grow, so a queue
// that stays short never reallocates however many elements pass through.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// front returns the oldest element; the queue must not be empty.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// pop removes and returns the oldest element; the queue must not be empty.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop the reference a backlogged payload holds
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
