// Package rdma simulates the RDMA facilities Acuerdo depends on: reliable
// connections (queue pairs) with lossless FIFO delivery, registered memory
// regions, a one-sided WRITE verb that completes without involving the remote
// CPU, and selective signaling that bounds the send queue.
//
// The simulation models the performance-relevant behaviour of a RoCE fabric:
//
//   - posting a verb costs sender CPU time (WQE construction + doorbell);
//   - the sender NIC serializes messages onto the wire at link bandwidth,
//     with a minimum wire frame size (small messages cost as much as the
//     minimum frame — the root of Acuerdo's 2x bandwidth advantage over
//     Derecho's two-writes-per-message scheme);
//   - delivery is FIFO per queue pair and needs no receiver CPU: payload
//     bytes appear in the remote memory region and are discovered by
//     polling;
//   - a completion is an event inside the queue pair, not something a
//     consumer polls: the acknowledgment of a signaled write (or its retry
//     timeout) reaches the sender and frees the send queue of that write and
//     every earlier one (selective signaling; the paper signals one write
//     in a thousand for exactly this, §3.2). It says nothing the protocols
//     may rely on about remote visibility, so nothing else hangs off it
//     (DESIGN.md §6.10, "What a completion is for").
//
// All timing is driven by a simnet.Sim, so runs are deterministic.
package rdma

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// Params calibrates the fabric. Defaults (DefaultParams) approximate the
// paper's testbed: Mellanox ConnectX-4 25 GbE NICs behind one RoCE switch.
type Params struct {
	// LinkLatency is the one-way wire+switch+PCIe latency.
	LinkLatency time.Duration
	// LinkJitter is extra per-message one-way latency (switch queueing).
	LinkJitter simnet.Dist
	// Bandwidth is the NIC line rate in bytes/second.
	Bandwidth float64
	// PostCost is the CPU cost of posting one verb (WQE + doorbell).
	PostCost time.Duration
	// WireOverhead is per-message header bytes on the wire.
	WireOverhead int
	// MinWireSize is the minimum wire frame; the paper cites 80 bytes as
	// the minimum size of an RDMA message.
	MinWireSize int
	// SendQueueDepth bounds unacknowledged WQEs per queue pair.
	SendQueueDepth int
	// RetryTimeout is how long the NIC waits before reporting an error
	// completion for a write to an unreachable peer.
	RetryTimeout time.Duration
	// RetransmitDelay is the extra latency one lost transmission adds
	// under an injected loss window (RC is reliable: loss never drops
	// data, it costs a NIC-level retransmission round).
	RetransmitDelay time.Duration
}

// DefaultParams returns the calibrated RoCE parameters used by all
// experiments (see DESIGN.md §5).
func DefaultParams() Params {
	return Params{
		LinkLatency:     900 * time.Nanosecond,
		LinkJitter:      simnet.Exponential{MeanD: 80 * time.Nanosecond, Cap: 20 * time.Microsecond},
		Bandwidth:       3.125e9, // 25 Gb/s
		PostCost:        600 * time.Nanosecond,
		WireOverhead:    60,
		MinWireSize:     80,
		SendQueueDepth:  8192,
		RetryTimeout:    4 * time.Millisecond,
		RetransmitDelay: 50 * time.Microsecond,
	}
}

// serialize returns the NIC wire occupancy for a payload of n bytes.
func (p *Params) serialize(n int) time.Duration {
	wire := n + p.WireOverhead
	if wire < p.MinWireSize {
		wire = p.MinWireSize
	}
	return time.Duration(float64(wire) / p.Bandwidth * 1e9)
}

// Fabric is a set of nodes connected through one switch. The embedded
// simnet.Links is its directed fault surface (cuts, loss windows, latency
// spikes, keyed by fabric node id) and its queued-CPU hand-out. A cut parks
// in-flight and future writes on their QP; they are redelivered after the
// heal, preserving the reliable-connection guarantee that nothing is lost or
// reordered, and a lost transmission costs Params.RetransmitDelay.
type Fabric struct {
	*simnet.Links
	Sim    *simnet.Sim
	Params Params
	nodes  []*Node

	// frames recycles wire-frame payload copies; a frame is returned once its
	// bytes land in the remote MR (or the write is dropped against a crashed
	// node).
	frames simnet.FramePool

	// deliveryFree recycles the records that carry a WRITE from post to
	// landing (see delivery).
	deliveryFree []*delivery
	// completionFree recycles the records of scheduled completions.
	completionFree []*completion

	// mrs tracks the poolable registered regions handed out by this
	// fabric's nodes, for Release.
	mrs []*MR
}

// NewFabric creates an empty fabric.
func NewFabric(sim *simnet.Sim, p Params) *Fabric {
	f := &Fabric{Sim: sim, Params: p}
	f.Links = simnet.NewLinks(sim, f.flushParked)
	return f
}

// AddNode creates a node with its own NIC and its own CPU (Proc) — unless
// procs were queued by ProvideProcs, in which case the next queued CPU backs
// the node instead (placement-group co-location: many logical ring members
// time-sharing one physical machine's core).
func (f *Fabric) AddNode(name string) *Node {
	n := &Node{
		Fabric: f,
		ID:     len(f.nodes),
		Proc:   f.NextProc(len(f.nodes), name),
	}
	f.nodes = append(f.nodes, n)
	return n
}

// Node returns the node with the given ID.
func (f *Fabric) Node(id int) *Node { return f.nodes[id] }

// flushParked is the heal hook: it releases the traffic parked on the
// restored a→b direction — payloads of QPs a→b, and the acks of QPs b→a,
// which travel a→b.
func (f *Fabric) flushParked(a, b int) {
	for _, n := range f.nodes {
		for _, qp := range n.qps {
			if qp.from.ID == a && qp.to.ID == b {
				qp.flushParked()
			}
			if qp.from.ID == b && qp.to.ID == a {
				qp.flushParkedAcks()
			}
		}
	}
}

// Node is a machine on the fabric: one process/CPU plus one NIC.
type Node struct {
	Fabric *Fabric
	ID     int
	Proc   *simnet.Proc

	nicFreeAt simnet.Time // NIC send-side serialization resource
	qps       []*QP
	crashed   bool

	// Counters for reporting.
	BytesSent uint64
	Writes    uint64
}

// Crash powers the node off: its process stops, queued deliveries to it are
// dropped, and writes toward it complete with errors after the retry timeout.
func (n *Node) Crash() {
	n.crashed = true
	n.Proc.Crash()
}

// Recover powers the node back on with its memory intact.
func (n *Node) Recover() {
	n.crashed = false
	n.Proc.Recover()
}

// Crashed reports whether the node is down.
func (n *Node) Crashed() bool { return n.crashed }

// MR is a registered memory region. Bytes written by remote one-sided writes
// appear directly in Buf; the owning process discovers them by polling.
type MR struct {
	Node *Node
	// Buf is the region's memory. A region large enough to pool (mrPoolMin)
	// is written only by delivery.fire, the remote write landing; its owner
	// reads it. Smaller regions may also be written in place by their owner
	// (an SST's local row).
	Buf []byte
	// hi is the high-water mark of landed writes: Buf[hi:] is still zero.
	hi int
}

// Zero returns the region to all zeroes by clearing what landed in it.
func (mr *MR) Zero() {
	clear(mr.Buf[:mr.hi])
	mr.hi = 0
}

// mrPool recycles the backing arrays of large registered regions across
// fabric instances. Sweeps build a fresh fabric per load point, and the
// dominant setup cost is the kernel and GC zeroing tens of megabytes of
// ring and log regions each time; reusing the arrays keeps that memory
// warm. Every array in the pool is all zeroes: Release clears the extent
// that landed in a region before pooling it, so a pooled region is
// indistinguishable from a fresh allocation, every downstream result stays
// byte-identical, and a world pays for the bytes it wrote, not for the size
// of its rings (a ring that wrapped has hi == len(Buf)). The map is keyed
// by exact size (region sizes come from a handful of fixed configs) and
// mutex-guarded because parallel sweeps construct fabrics concurrently.
var (
	//lint:ignore hostblock the MR pool is shared across fabrics owned by concurrent sweep workers, so this one lock is genuinely cross-goroutine; pooling is order-independent and never touches simulated state
	mrPoolMu sync.Mutex
	mrPool   = map[int][][]byte{}
)

// mrPoolMin is the smallest region worth pooling; tiny regions (credit
// words, ack slots) are cheaper to allocate fresh.
const mrPoolMin = 1 << 16

// RegisterMemory registers size bytes of zeroed memory for remote access.
func (n *Node) RegisterMemory(size int) *MR {
	mr := &MR{Node: n}
	if size >= mrPoolMin {
		n.Fabric.mrs = append(n.Fabric.mrs, mr)
		mrPoolMu.Lock()
		if l := mrPool[size]; len(l) > 0 {
			mr.Buf = l[len(l)-1]
			l[len(l)-1] = nil
			mrPool[size] = l[:len(l)-1]
		}
		mrPoolMu.Unlock()
	}
	if mr.Buf == nil {
		mr.Buf = make([]byte, size)
	}
	return mr
}

// Release returns every poolable registered region, zeroed, to the
// process-wide pool. The fabric — and every node, QP, and MR built on it —
// must not be used afterwards: the arrays belong to whatever instance
// registers memory next. Harnesses that build one instance per measurement
// point call this between points.
func (f *Fabric) Release() {
	for _, mr := range f.mrs {
		mr.Zero()
	}
	mrPoolMu.Lock()
	for _, mr := range f.mrs {
		mrPool[len(mr.Buf)] = append(mrPool[len(mr.Buf)], mr.Buf)
	}
	mrPoolMu.Unlock()
	f.mrs = nil
}

// Status is how a signaled write's completion ended: the B operand of its
// trace.KCQE event.
type Status int

const (
	// OK means the write was acknowledged by the remote NIC.
	OK Status = iota
	// Flushed means the retry timeout expired (remote unreachable).
	Flushed
)

// CQ is what Connect used to deliver completions to. Nothing in the tree
// passes one any more; CQ and NewCQ remain only because the frozen
// benchmark/kernels.go still hands Connect a fresh one (simnet keeps a
// scheduling synonym for the same module). Delete both, and Connect's
// variadic, with the next benchmark PR.
type CQ struct{}

// NewCQ returns a CQ that nothing reads.
func NewCQ() *CQ { return &CQ{} }

var (
	// ErrSendQueueFull is returned when a queue pair has too many
	// unacknowledged work requests.
	ErrSendQueueFull = errors.New("rdma: send queue full")
	// ErrBounds is returned when a write exceeds the remote MR.
	ErrBounds = errors.New("rdma: access outside memory region")
)

// QP is one direction of a reliable connection from one node to another.
// Writes posted on a QP are delivered losslessly, in FIFO order.
type QP struct {
	from, to *Node
	params   *Params

	// SignalEvery controls selective signaling: every k-th write requests
	// a completion; intermediate completions are implied (the paper posts
	// a signaled write every thousand messages).
	SignalEvery int

	sinceSignal int
	nextWRID    uint64
	outstanding int // unacknowledged WRs; a completion resets it
	lastDeliver simnet.Time
	parked      []wireWrite
	parkedAcks  []uint64 // wrids whose acks wait behind a to→from cut
}

// wireWrite is one posted WRITE between post and landing: parked on its QP
// while the direction is cut, otherwise in flight in a delivery record.
type wireWrite struct {
	remote   *MR
	off      int
	buf      []byte // frame from Fabric.frames
	signaled bool
	wrid     uint64
	ser      time.Duration
}

// delivery lands one wireWrite at the remote NIC. It holds what a per-write
// closure would capture; records are free-listed on the Fabric and land is
// bound once, when the record is created, so a post allocates nothing.
type delivery struct {
	qp   *QP
	w    wireWrite
	land func() // bound to fire
}

// deliver schedules w to land at time at.
func (qp *QP) deliver(at simnet.Time, w wireWrite) {
	fb := qp.from.Fabric
	var d *delivery
	if n := len(fb.deliveryFree); n > 0 {
		d = fb.deliveryFree[n-1]
		fb.deliveryFree = fb.deliveryFree[:n-1]
	} else {
		d = &delivery{}
		d.land = d.fire
	}
	d.qp, d.w = qp, w
	fb.Sim.At(at, d.land)
}

// fire recycles d (dropping its references, and before anything it calls can
// post again, as Sim.fire does with event slots), then copies the frame into
// the remote MR and raises the completion a signaled write asked for.
func (d *delivery) fire() {
	qp, w := d.qp, d.w
	d.qp, d.w = nil, wireWrite{}
	fb := qp.from.Fabric
	at := fb.Sim.Now()
	fb.deliveryFree = append(fb.deliveryFree, d)
	if qp.to.crashed {
		// Remote NIC unreachable: error completion after retries.
		fb.frames.Put(w.buf)
		if w.signaled {
			qp.complete(at.Add(qp.params.RetryTimeout), w.wrid, Flushed)
		}
		return
	}
	if end := w.off + copy(w.remote.Buf[w.off:], w.buf); end > w.remote.hi {
		w.remote.hi = end
	}
	if tr := fb.Sim.Tracer(); tr != nil {
		tr.Instant(trace.KWireRx, qp.to.ID, int64(at), int64(w.wrid), int64(len(w.buf)))
	}
	fb.frames.Put(w.buf)
	if w.signaled {
		qp.ack(at, w.wrid)
	}
}

// Connect creates a reliable-connection QP from n to remote. (In real verbs
// a QP is bidirectional; a pair of simulated QPs models one connection.) The
// variadic is ignored: see CQ.
func (n *Node) Connect(remote *Node, _ ...*CQ) *QP {
	qp := &QP{
		from:        n,
		to:          remote,
		params:      &n.Fabric.Params,
		SignalEvery: 1000,
	}
	n.qps = append(n.qps, qp)
	return qp
}

// post charges CPU and NIC serialization and returns the delivery time.
func (qp *QP) post(payload int) (deliverAt simnet.Time, ser time.Duration) {
	sim := qp.from.Fabric.Sim
	p := qp.params
	// CPU: WQE construction + doorbell.
	postDone := qp.from.Proc.Run(p.PostCost, nil)
	// NIC: serialize onto the wire in post order.
	ser = p.serialize(payload)
	start := postDone
	if qp.from.nicFreeAt > start {
		start = qp.from.nicFreeAt
	}
	txDone := start.Add(ser)
	qp.from.nicFreeAt = txDone
	if tr := sim.Tracer(); tr != nil {
		wire := payload + p.WireOverhead
		if wire < p.MinWireSize {
			wire = p.MinWireSize
		}
		tr.Span(trace.KWireTx, qp.from.ID, int64(start), int64(ser), int64(wire), 0)
		tr.Add(trace.CtrRDMAWireTime, int64(ser))
		tr.Add(trace.CtrRDMABytes, int64(wire))
		tr.Add(trace.CtrRDMAPostTime, int64(p.PostCost))
	}
	// Wire: latency + jitter + injected faults, FIFO-clamped per QP.
	lat := p.LinkLatency
	if p.LinkJitter != nil {
		lat += p.LinkJitter.Sample(sim.Rand())
	}
	lat += qp.from.Fabric.FaultDelay(qp.from.ID, qp.to.ID, p.RetransmitDelay)
	deliverAt = txDone.Add(lat)
	if deliverAt <= qp.lastDeliver {
		deliverAt = qp.lastDeliver + 1
	}
	qp.lastDeliver = deliverAt
	qp.from.BytesSent += uint64(payload + p.WireOverhead)
	qp.from.Writes++
	return deliverAt, ser
}

// ack carries the acknowledgment of signaled write wrid, generated at the
// remote NIC at genAt, over the reverse (to→from) wire direction. If that
// direction is cut the ack parks until HealOneWay flushes it; the locally
// generated retry timeout (Flushed) bypasses this and uses complete directly.
func (qp *QP) ack(genAt simnet.Time, wrid uint64) {
	f := qp.from.Fabric
	if f.CutOneWay(qp.to.ID, qp.from.ID) {
		qp.parkedAcks = append(qp.parkedAcks, wrid)
		return
	}
	lat := f.Params.LinkLatency + f.FaultDelay(qp.to.ID, qp.from.ID, f.Params.RetransmitDelay)
	qp.complete(genAt.Add(lat), wrid, OK)
}

// flushParkedAcks releases the acks parked behind a reverse-direction cut, in
// generation order.
func (qp *QP) flushParkedAcks() {
	parked := qp.parkedAcks
	qp.parkedAcks = nil
	at := qp.from.Fabric.Sim.Now().Add(qp.params.LinkLatency)
	for _, wrid := range parked {
		qp.complete(at, wrid, OK)
	}
}

// complete is the whole of what a completion does: at time at the sender's
// NIC retires signaled write wrid and every write before it, which frees the
// send queue. Nothing is queued for a consumer; the KCQE event and CtrCQEs
// are its only other trace.
func (qp *QP) complete(at simnet.Time, wrid uint64, st Status) {
	fb := qp.from.Fabric
	var c *completion
	if n := len(fb.completionFree); n > 0 {
		c = fb.completionFree[n-1]
		fb.completionFree = fb.completionFree[:n-1]
	} else {
		c = &completion{}
		c.retire = c.fire
	}
	c.qp, c.wrid, c.st = qp, wrid, st
	fb.Sim.At(at, c.retire)
}

// completion is one scheduled complete, free-listed on the Fabric like
// delivery, with retire bound once.
type completion struct {
	qp     *QP
	wrid   uint64
	st     Status
	retire func() // bound to fire
}

// fire recycles c, then retires its write.
func (c *completion) fire() {
	qp, wrid, st := c.qp, c.wrid, c.st
	c.qp = nil
	fb := qp.from.Fabric
	fb.completionFree = append(fb.completionFree, c)
	if qp.from.crashed {
		return
	}
	qp.outstanding = 0
	if tr := fb.Sim.Tracer(); tr != nil {
		tr.Instant(trace.KCQE, qp.from.ID, int64(fb.Sim.Now()), int64(wrid), int64(st))
		tr.Add(trace.CtrCQEs, 1)
	}
}

// Write posts a one-sided RDMA write of parts, back to back, into
// remote[off:]. parts is the work request's gather list (ibv_send_wr.sg_list
// on real verbs): however many parts, it is one WR, one post and one wire
// frame of their total length, and the only copy is the one into that frame,
// made before Write returns, so the caller may reuse every part at once. The
// write is signaled according to the QP's selective-signaling policy. It
// returns the work request ID.
func (qp *QP) Write(remote *MR, off int, parts ...[]byte) (uint64, error) {
	// The cadence counts attempts: a post refused below still advances it.
	signaled := false
	qp.sinceSignal++
	if qp.SignalEvery > 0 && qp.sinceSignal >= qp.SignalEvery {
		signaled = true
		qp.sinceSignal = 0
	}
	if remote.Node != qp.to {
		return 0, fmt.Errorf("rdma: MR belongs to node %d, QP targets node %d", remote.Node.ID, qp.to.ID)
	}
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	if off < 0 || off+size > len(remote.Buf) {
		return 0, ErrBounds
	}
	if qp.outstanding >= qp.params.SendQueueDepth {
		return 0, ErrSendQueueFull
	}
	qp.nextWRID++
	wrid := qp.nextWRID
	qp.outstanding++

	fb := qp.from.Fabric
	buf := fb.frames.Get(size)
	n := 0
	for _, p := range parts {
		n += copy(buf[n:], p)
	}

	sim := fb.Sim
	deliverAt, ser := qp.post(size)
	if tr := sim.Tracer(); tr != nil {
		tr.Instant(trace.KWRPost, qp.from.ID, int64(sim.Now()), int64(wrid), int64(size))
		tr.Add(trace.CtrRDMAWrites, 1)
		if !signaled {
			tr.Instant(trace.KSigSkip, qp.from.ID, int64(sim.Now()), int64(wrid), 0)
			tr.Add(trace.CtrSigSkips, 1)
		}
	}

	w := wireWrite{remote: remote, off: off, buf: buf, signaled: signaled, wrid: wrid, ser: ser}
	if fb.CutOneWay(qp.from.ID, qp.to.ID) {
		qp.parked = append(qp.parked, w)
	} else {
		qp.deliver(deliverAt, w)
	}
	return wrid, nil
}

// flushParked redelivers writes parked during a partition, in order.
func (qp *QP) flushParked() {
	parked := qp.parked
	qp.parked = nil
	at := qp.from.Fabric.Sim.Now()
	for _, w := range parked {
		at = at.Add(w.ser + qp.params.LinkLatency)
		if at <= qp.lastDeliver {
			at = qp.lastDeliver + 1
		}
		qp.lastDeliver = at
		qp.deliver(at, w)
	}
}
