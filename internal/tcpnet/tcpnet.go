// Package tcpnet simulates kernel TCP/IP messaging on the same physical
// fabric as the RDMA stack, for the paper's TCP baselines (libpaxos,
// ZooKeeper/Zab, etcd/Raft).
//
// The model captures why TCP systems lose to RDMA systems in the paper's
// evaluation: every send pays a syscall on the sender CPU, every message
// traverses the kernel network stack on both sides, and — unlike one-sided
// RDMA writes — delivery requires the receiving *process* to be scheduled
// (softirq + wakeup), so a busy or descheduled receiver delays every
// message. Connections are reliable and FIFO, like real TCP. Ensemble wires
// a whole baseline deployment (servers, client, mesh) out of them.
//
// Like rdma.Fabric, the network exposes a directed fault surface for the
// chaos engine: one-way cuts (parked in the sender's kernel buffer and
// retransmitted after heal), per-direction loss-probability windows (each
// lost transmission costs a retransmission timeout; TCP never drops or
// reorders data), and latency-spike windows.
package tcpnet

import (
	"time"

	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// Params calibrates the TCP path. See DESIGN.md §5.
type Params struct {
	// SendCost is sender CPU per send (syscall + copy).
	SendCost time.Duration
	// KernelLatency is the per-side kernel network-stack latency.
	KernelLatency time.Duration
	// WakeupLatency is the receiver scheduling delay (softirq -> epoll ->
	// process runs).
	WakeupLatency time.Duration
	// RecvCost is receiver CPU per message (syscall + copy + parse).
	RecvCost time.Duration
	// LinkLatency is the one-way wire+switch latency (same fabric as RDMA).
	LinkLatency time.Duration
	// Jitter is extra per-message latency noise.
	Jitter simnet.Dist
	// Bandwidth is the NIC line rate in bytes/second.
	Bandwidth float64
	// WireOverhead is per-message header bytes (Ethernet+IP+TCP).
	WireOverhead int
	// RetransmitDelay is the extra latency one lost transmission adds
	// under an injected loss window (TCP RTO-driven recovery; much larger
	// than the RDMA NIC's retransmission round).
	RetransmitDelay time.Duration
}

// DefaultParams returns the calibrated kernel-TCP constants.
func DefaultParams() Params {
	return Params{
		SendCost:        2500 * time.Nanosecond,
		KernelLatency:   6 * time.Microsecond,
		WakeupLatency:   4 * time.Microsecond,
		RecvCost:        1500 * time.Nanosecond,
		LinkLatency:     900 * time.Nanosecond,
		Jitter:          simnet.Exponential{MeanD: 2 * time.Microsecond, Cap: 200 * time.Microsecond},
		Bandwidth:       3.125e9,
		WireOverhead:    66,
		RetransmitDelay: 200 * time.Microsecond,
	}
}

// Net is a set of TCP hosts. The embedded simnet.Links is its directed fault
// surface, keyed by host id, and its queued-CPU hand-out: messages sent
// across a cut park in the sender's kernel buffer (TCP keeps retransmitting
// silently) and are delivered, in order, once the direction heals; a lost
// transmission costs Params.RetransmitDelay.
type Net struct {
	*simnet.Links
	Sim    *simnet.Sim
	Params Params
	nodes  []*Node
	conns  []*Conn

	// frames recycles wire-frame message copies; a frame is returned to the
	// pool after the receiver's handler returns. Handlers must therefore copy
	// any bytes they retain past their own return — the same contract real
	// kernel receive buffers impose.
	frames simnet.FramePool

	// recvFree recycles the records that carry a message to its receiver's
	// handler (see recv).
	recvFree []*recv
}

// New creates an empty network.
func New(sim *simnet.Sim, p Params) *Net {
	n := &Net{Sim: sim, Params: p}
	n.Links = simnet.NewLinks(sim, n.flushParked)
	return n
}

// flushParked is the heal hook: it retransmits the messages parked on every
// a→b connection, in send order.
func (n *Net) flushParked(a, b int) {
	for _, c := range n.conns {
		if c.from.ID == a && c.to.ID == b {
			c.flushParked()
		}
	}
}

// Node is one host: a process plus a kernel network path.
type Node struct {
	Net  *Net
	ID   int
	Proc *simnet.Proc

	nicFreeAt simnet.Time
	crashed   bool

	// MsgsSent counts sends for reporting.
	MsgsSent uint64
}

// AddNode creates a host with its own CPU — unless procs were queued by
// ProvideProcs, in which case the next queued CPU backs the host instead
// (placement-group co-location on a shared physical machine).
func (n *Net) AddNode(name string) *Node {
	nd := &Node{Net: n, ID: len(n.nodes), Proc: n.NextProc(len(n.nodes), name)}
	n.nodes = append(n.nodes, nd)
	return nd
}

// Node returns the host with the given ID.
func (n *Net) Node(id int) *Node { return n.nodes[id] }

// Crash powers the host off; in-flight messages to it are dropped, and
// messages parked in its kernel buffers die with the process.
func (nd *Node) Crash() {
	nd.crashed = true
	nd.Proc.Crash()
	for _, c := range nd.Net.conns {
		if c.from == nd {
			for _, buf := range c.parked {
				nd.Net.frames.Put(buf)
			}
			c.parked = nil
		}
	}
}

// Recover restarts a crashed host.
func (nd *Node) Recover() {
	nd.crashed = false
	nd.Proc.Recover()
}

// Crashed reports whether the host is down.
func (nd *Node) Crashed() bool { return nd.crashed }

// Conn is one direction of a TCP connection. Messages are delivered
// reliably, in FIFO order, to the receiver's handler — which runs on the
// receiver's CPU (this is the crucial difference from one-sided RDMA).
type Conn struct {
	from, to    *Node
	handler     func(msg []byte)
	lastDeliver simnet.Time
	parked      [][]byte
}

// Connect opens a connection from nd to remote; handler runs on remote's
// process for every delivered message.
func (nd *Node) Connect(remote *Node, handler func(msg []byte)) *Conn {
	c := &Conn{from: nd, to: remote, handler: handler}
	nd.Net.conns = append(nd.Net.conns, c)
	return c
}

// Send transmits msg. It charges the sender's CPU and NIC and schedules
// receiver-side processing; delivery is skipped if either end has crashed
// by the relevant time. Under a one-way cut the message parks after the
// send syscall (the kernel buffers it) until the direction heals.
func (c *Conn) Send(msg []byte) {
	nd := c.from
	if nd.crashed {
		return
	}
	p := &nd.Net.Params
	sim := nd.Net.Sim
	nd.MsgsSent++

	// Sender: syscall into the kernel buffer.
	sendDone := nd.Proc.Run(p.SendCost, nil)
	if tr := sim.Tracer(); tr != nil {
		tr.Span(trace.KTCPSend, nd.ID, int64(sim.Now()), int64(p.SendCost), int64(len(msg)), 0)
		tr.Add(trace.CtrTCPMsgs, 1)
		tr.Add(trace.CtrTCPBytes, int64(len(msg)))
		tr.Add(trace.CtrTCPSendTime, int64(p.SendCost))
	}

	buf := nd.Net.frames.Get(len(msg))
	copy(buf, msg)
	if nd.Net.CutOneWay(nd.ID, c.to.ID) {
		c.parked = append(c.parked, buf)
		return
	}
	c.transmit(sendDone, buf)
}

// transmit runs the kernel/NIC/wire/receiver half of a send, starting no
// earlier than ready.
func (c *Conn) transmit(ready simnet.Time, buf []byte) {
	nd := c.from
	p := &nd.Net.Params
	sim := nd.Net.Sim

	ser := time.Duration(float64(len(buf)+p.WireOverhead) / p.Bandwidth * 1e9)
	txStart := ready.Add(p.KernelLatency)
	if nd.nicFreeAt > txStart {
		txStart = nd.nicFreeAt
	}
	txDone := txStart.Add(ser)
	nd.nicFreeAt = txDone

	lat := p.LinkLatency
	if p.Jitter != nil {
		lat += p.Jitter.Sample(sim.Rand())
	}
	lat += nd.Net.FaultDelay(nd.ID, c.to.ID, p.RetransmitDelay)
	arrive := txDone.Add(lat + p.KernelLatency)
	if arrive <= c.lastDeliver {
		arrive = c.lastDeliver + 1
	}
	c.lastDeliver = arrive

	if tr := sim.Tracer(); tr != nil {
		tr.Span(trace.KTCPWire, nd.ID, int64(txStart), int64(arrive-txStart), int64(len(buf)), 0)
		tr.Span(trace.KTCPWakeup, c.to.ID, int64(arrive), int64(p.WakeupLatency), 0, 0)
		tr.Add(trace.CtrTCPWakeups, 1)
	}

	// Receiver: wakeup + recv processing on the receiving CPU.
	net := nd.Net
	var r *recv
	if n := len(net.recvFree); n > 0 {
		r = net.recvFree[n-1]
		net.recvFree = net.recvFree[:n-1]
	} else {
		r = &recv{}
		r.handle = r.fire
	}
	r.c, r.buf = c, buf
	c.to.Proc.RunAt(arrive.Add(p.WakeupLatency), p.RecvCost, r.handle)
}

// recv hands one delivered frame to its connection's handler. It holds what
// a per-message closure would capture; records are free-listed on the Net and
// handle is bound once, when the record is created, so a send allocates
// nothing. A record whose receiver crashes first is simply dropped.
type recv struct {
	c      *Conn
	buf    []byte
	handle func() // bound to fire
}

// fire recycles r before the handler runs (a handler that sends reuses it);
// the frame is recycled once the handler returns: handlers copy what they
// keep.
func (r *recv) fire() {
	c, buf := r.c, r.buf
	r.c, r.buf = nil, nil
	net := c.from.Net
	net.recvFree = append(net.recvFree, r)
	if tr := net.Sim.Tracer(); tr != nil {
		// Run fires at completion time, so the recv span ends now.
		cost := int64(net.Params.RecvCost)
		tr.Span(trace.KTCPRecv, c.to.ID, int64(net.Sim.Now())-cost, cost, int64(len(buf)), 0)
	}
	c.handler(buf)
	net.frames.Put(buf)
}

// flushParked retransmits messages parked behind a one-way cut, in send
// order, unless the sender has since crashed.
func (c *Conn) flushParked() {
	parked := c.parked
	c.parked = nil
	if c.from.crashed {
		return
	}
	now := c.from.Net.Sim.Now()
	for _, buf := range parked {
		c.transmit(now, buf)
	}
}
