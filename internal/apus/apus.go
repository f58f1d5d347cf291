// Package apus implements the APUS baseline (Wang et al., SoCC 2017): Paxos
// over RDMA. The leader has exclusive write access to a log region in each
// acceptor's memory and replicates client messages by writing log entries
// directly with one-sided RDMA writes; acceptors acknowledge received
// batches periodically by writing an index into the leader's memory.
//
// The performance-relevant properties the paper calls out are modelled
// faithfully: APUS runs a separate consensus instance per message (a
// per-message CPU cost at the leader), and its Paxos engine handles only a
// single pending batch at a time — new client messages queue into the next
// batch while the current one completes, so any delay on any message in the
// batch stalls the whole pipeline.
package apus

import (
	"encoding/binary"
	"fmt"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/rdma"
	"acuerdo/internal/ringbuf"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// Config tunes the APUS baseline.
type Config struct {
	N int
	// InstanceCost is leader CPU per message (one Paxos instance each).
	InstanceCost time.Duration
	// AcceptorCost is acceptor CPU per log entry processed.
	AcceptorCost time.Duration
	// AckInterval is the acceptor acknowledgment thread's period.
	AckInterval time.Duration
	// PollInterval/PollCost model the event loops.
	PollInterval time.Duration
	PollCost     time.Duration
	// LogSlots and SlotBytes size each acceptor's log region.
	LogSlots  int
	SlotBytes int
}

// DefaultConfig returns calibrated APUS constants.
func DefaultConfig(n int) Config {
	return Config{
		N:            n,
		InstanceCost: 6 * time.Microsecond,
		AcceptorCost: 500 * time.Nanosecond,
		AckInterval:  8 * time.Microsecond,
		PollInterval: 1 * time.Microsecond,
		PollCost:     150 * time.Nanosecond,
		LogSlots:     8192,
		SlotBytes:    1100,
	}
}

const slotHdr = 12 // index u64 + len u32

// Cluster is an APUS deployment (leader = server 0) plus a client host on
// the RDMA fabric. It implements abcast.Group.
type Cluster struct {
	Sim    *simnet.Sim
	Fabric *rdma.Fabric
	cfg    Config

	nodes  []*rdma.Node
	client *rdma.Node

	// Leader state.
	queue     [][]byte // next batch accumulating
	batchEnd  uint64   // last index of the pending batch (0 = none)
	nextIdx   uint64   // next log index to assign (1-based)
	committed uint64
	logQPs    []*rdma.QP // leader -> acceptor log regions
	commitQPs []*rdma.QP // leader -> acceptor commit registers
	ackMR     *rdma.MR   // acceptors write ack indices here (8B per acceptor)

	// Acceptor state (indexed by server).
	logMRs    []*rdma.MR
	commitMRs []*rdma.MR // leader publishes commit index (8B)
	ackQPs    []*rdma.QP // acceptor -> leader ackMR
	seen      []uint64   // acceptor: contiguous entries observed
	acked     []uint64   // acceptor: last index acknowledged
	delivered []uint64   // per server: entries delivered upward
	store     [][][]byte // per server: payload by index (retained until delivered)

	link     *ringbuf.ClientLink // client <-> leader rings
	requests *abcast.Client
	sub      trace.Subscriber

	// OnDeliver observes every delivery.
	OnDeliver func(replica int, index uint64, payload []byte)
}

// NewCluster builds the deployment.
func NewCluster(sim *simnet.Sim, fabric *rdma.Fabric, cfg Config) *Cluster {
	c := &Cluster{Sim: sim, Fabric: fabric, cfg: cfg, nextIdx: 1}
	// No retry: the fixed leader never loses a request, and a dead leader
	// is a permanent halt (see Crash).
	c.requests = abcast.NewClient(sim, c.try, 0, 0)
	c.nodes = make([]*rdma.Node, cfg.N)
	for i := range c.nodes {
		c.nodes[i] = fabric.AddNode("apus")
	}
	c.client = fabric.AddNode("apus-client")

	leader := c.nodes[0]
	c.logMRs = make([]*rdma.MR, cfg.N)
	c.commitMRs = make([]*rdma.MR, cfg.N)
	c.logQPs = make([]*rdma.QP, cfg.N)
	c.commitQPs = make([]*rdma.QP, cfg.N)
	c.ackQPs = make([]*rdma.QP, cfg.N)
	c.seen = make([]uint64, cfg.N)
	c.acked = make([]uint64, cfg.N)
	c.delivered = make([]uint64, cfg.N)
	c.store = make([][][]byte, cfg.N)
	c.ackMR = leader.RegisterMemory(8 * cfg.N)
	for i := 1; i < cfg.N; i++ {
		c.logMRs[i] = c.nodes[i].RegisterMemory(cfg.LogSlots * cfg.SlotBytes)
		c.commitMRs[i] = c.nodes[i].RegisterMemory(8)
		c.logQPs[i] = leader.Connect(c.nodes[i])
		c.commitQPs[i] = leader.Connect(c.nodes[i])
		c.ackQPs[i] = c.nodes[i].Connect(leader)
	}

	c.link = ringbuf.NewClientLink(c.client, c.nodes[:1])
	return c
}

// Subscribe attaches s to the protocol facts the replicas emit (nil
// detaches): the leader states slot assignments and every replica its
// deliveries, so the observer checks that no replication slot is ever
// reassigned and that every replica delivers the leader's assignment, in
// order. Per-replica delivery frontiers survive restarts, so no Restart is
// stated. Call before Start.
func (c *Cluster) Subscribe(s trace.Subscriber) { c.sub = s }

// emit states one protocol fact at replica i.
func (c *Cluster) emit(i int, k trace.FactKind, index uint64, id int64) {
	trace.Emit(c.Sim.Tracer(), c.sub, &trace.Fact{Kind: k, Replica: i, Node: c.nodes[i].ID,
		At: int64(c.Sim.Now()), Index: index, ID: id})
}

// Start boots the leader, acceptor, and client loops.
func (c *Cluster) Start() {
	c.nodes[0].Proc.PollLoop(c.cfg.PollInterval, c.cfg.PollCost, c.leaderPoll)
	for i := 1; i < c.cfg.N; i++ {
		i := i
		c.nodes[i].Proc.PollLoop(c.cfg.AckInterval, c.cfg.PollCost, func() { c.acceptorPoll(i) })
	}
	c.link.Start(c.requests.Ack)
}

// leaderPoll drains client requests, seals batches, and commits on quorum
// acknowledgment.
func (c *Cluster) leaderPoll() {
	// A request waits in queue and then in store[0] until its batch commits,
	// long after Requests has returned its ring slot to the client: keep a
	// copy, not the view.
	c.link.Requests(0, func(req []byte) { c.queue = append(c.queue, append([]byte(nil), req...)) })
	// Commit check: quorum of acceptors (plus the leader itself) at or
	// beyond the pending batch end.
	if c.batchEnd > 0 {
		n := 1 // leader
		for i := 1; i < c.cfg.N; i++ {
			if binary.LittleEndian.Uint64(c.ackMR.Buf[8*i:]) >= c.batchEnd {
				n++
			}
		}
		if n >= c.cfg.N/2+1 {
			end := c.batchEnd
			c.batchEnd = 0
			c.commitUpTo(end)
		}
	}
	// Single pending batch: seal the next one only when none is pending.
	if c.batchEnd == 0 && len(c.queue) > 0 {
		c.sendBatch()
	}
}

// sendBatch replicates every queued message as one batch: one log-entry
// write per acceptor per message, each message paying its own Paxos
// instance cost at the leader.
func (c *Cluster) sendBatch() {
	batch := c.queue
	c.queue = nil
	leader := c.nodes[0]
	for _, payload := range batch {
		idx := c.nextIdx
		c.nextIdx++
		leader.Proc.Charge(c.cfg.InstanceCost)
		if c.store[0] == nil {
			c.store[0] = [][]byte{nil}
		}
		c.store[0] = append(c.store[0], payload)
		slot := make([]byte, slotHdr+len(payload))
		binary.LittleEndian.PutUint64(slot, idx)
		binary.LittleEndian.PutUint32(slot[8:], uint32(len(payload)))
		copy(slot[slotHdr:], payload)
		off := int(idx%uint64(c.cfg.LogSlots)) * c.cfg.SlotBytes
		for i := 1; i < c.cfg.N; i++ {
			if _, err := c.logQPs[i].Write(c.logMRs[i], off, slot); err != nil && err != rdma.ErrSendQueueFull {
				panic("apus: log write failed: " + err.Error())
			}
		}
		c.emit(0, trace.Assign, idx, trace.ID(payload))
		c.batchEnd = idx
	}
}

// commitUpTo delivers entries at the leader and publishes the commit index
// to acceptors.
func (c *Cluster) commitUpTo(end uint64) {
	for c.delivered[0] < end {
		c.delivered[0]++
		payload := c.store[0][c.delivered[0]]
		c.emit(0, trace.CommitSlot, c.delivered[0], trace.ID(payload))
		if c.OnDeliver != nil {
			c.OnDeliver(0, c.delivered[0], payload)
		}
		c.link.Ack(0, payload)
	}
	c.committed = end
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], end)
	for i := 1; i < c.cfg.N; i++ {
		if _, err := c.commitQPs[i].Write(c.commitMRs[i], 0, buf[:]); err != nil && err != rdma.ErrSendQueueFull {
			panic("apus: commit write failed: " + err.Error())
		}
	}
}

// acceptorPoll is the periodic acknowledgment thread: observe new
// contiguous log entries, ack the highest index, and deliver committed
// entries.
func (c *Cluster) acceptorPoll(i int) {
	if c.store[i] == nil {
		c.store[i] = [][]byte{nil}
	}
	// Scan forward from the last seen entry.
	for {
		next := c.seen[i] + 1
		off := int(next%uint64(c.cfg.LogSlots)) * c.cfg.SlotBytes
		buf := c.logMRs[i].Buf
		idx := binary.LittleEndian.Uint64(buf[off:])
		if idx != next {
			break
		}
		ln := int(binary.LittleEndian.Uint32(buf[off+8:]))
		payload := make([]byte, ln)
		copy(payload, buf[off+slotHdr:off+slotHdr+ln])
		c.store[i] = append(c.store[i], payload)
		c.seen[i] = next
		c.nodes[i].Proc.Charge(c.cfg.AcceptorCost)
		c.emit(i, trace.Accept, next, trace.ID(payload))
	}
	if c.seen[i] > c.acked[i] {
		c.acked[i] = c.seen[i]
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], c.acked[i])
		if _, err := c.ackQPs[i].Write(c.ackMR, 8*i, buf[:]); err != nil && err != rdma.ErrSendQueueFull {
			panic("apus: ack write failed: " + err.Error())
		}
	}
	// Deliver what the leader has committed.
	commit := binary.LittleEndian.Uint64(c.commitMRs[i].Buf)
	for c.delivered[i] < commit && c.delivered[i] < c.seen[i] {
		c.delivered[i]++
		c.emit(i, trace.DeliverSlot, c.delivered[i], trace.ID(c.store[i][c.delivered[i]]))
		if c.OnDeliver != nil {
			c.OnDeliver(i, c.delivered[i], c.store[i][c.delivered[i]])
		}
	}
}

// --- fault injection (chaos engine surface) ---

// Size implements abcast.Group.
func (c *Cluster) Size() int { return c.cfg.N }

// Proc implements abcast.Group.
func (c *Cluster) Proc(i int) *simnet.Proc { return c.nodes[i].Proc }

// NodeID implements abcast.Group.
func (c *Cluster) NodeID(i int) int { return c.nodes[i].ID }

// SetDeliver implements abcast.Group over the typed OnDeliver hook.
func (c *Cluster) SetDeliver(fn func(replica int, payload []byte)) {
	c.OnDeliver = func(replica int, _ uint64, payload []byte) { fn(replica, payload) }
}

// Crash fail-stops replica i. Crashing the leader (replica 0) permanently
// halts the system: APUS as modelled here has a fixed leader with
// exclusive write access to the acceptor logs and no election protocol,
// so leader death is by-design graceful degradation — the no-progress
// watchdog reports the resulting unavailability instead of the harness
// hanging (see DESIGN.md §7).
func (c *Cluster) Crash(i int) { c.nodes[i].Crash() }

// Restart recovers a crashed acceptor and resumes its acknowledgment
// loop. Restarting the leader is deliberately a no-op: its queue pair and
// ring state toward the acceptors cannot be re-established one-sided, so
// the halt is permanent (the watchdog reports it).
func (c *Cluster) Restart(i int) {
	if i == 0 || !c.nodes[i].Crashed() {
		return
	}
	c.nodes[i].Recover()
	c.nodes[i].Proc.PollLoop(c.cfg.AckInterval, c.cfg.PollCost, func() { c.acceptorPoll(i) })
}

// LeaderIdx returns 0 while the fixed leader is alive, else -1.
func (c *Cluster) LeaderIdx() int {
	if c.nodes[0].Crashed() {
		return -1
	}
	return 0
}

// Name implements abcast.System.
func (c *Cluster) Name() string { return "apus" }

// Ready implements abcast.System.
func (c *Cluster) Ready() bool { return !c.nodes[0].Crashed() }

// Submit implements abcast.System. A request that does not fit a log slot is
// refused here, where it enters: sendBatch writes it at a fixed slot stride,
// so a longer one would run into its neighbour's slot.
func (c *Cluster) Submit(payload []byte, done func()) {
	if slotHdr+len(payload) > c.cfg.SlotBytes {
		panic(fmt.Sprintf("apus: %d-byte request exceeds the %d-byte log slot (%d-byte header)", len(payload), c.cfg.SlotBytes, slotHdr))
	}
	c.requests.Submit(payload, done)
}

// try is the client's send step: every request goes to the fixed leader.
func (c *Cluster) try(_ uint64, payload []byte) bool {
	c.link.Request(0, payload)
	return true
}

var _ abcast.Group = (*Cluster)(nil)
