package acuerdo

import (
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/disk"
	"acuerdo/internal/observe"
	"acuerdo/internal/rdma"
	"acuerdo/internal/ringbuf"
	"acuerdo/internal/simnet"
	"acuerdo/internal/sst"
)

// ClusterConfig parameterizes a full Acuerdo deployment on one fabric.
type ClusterConfig struct {
	// N is the replica count (n = 2f+1).
	N int
	// Replica tunes the protocol; zero value means DefaultConfig.
	Replica Config
	// Desched, if non-nil, injects OS scheduler noise into every replica.
	Desched *simnet.DeschedConfig
	// ClientSubmitCost is the client CPU cost per request.
	ClientSubmitCost time.Duration
	// RetryTimeout is how long the client waits for a commit
	// acknowledgment before resending (only matters across failures).
	RetryTimeout time.Duration
}

// DefaultClusterConfig returns a cluster of n replicas with default tuning.
func DefaultClusterConfig(n int) ClusterConfig {
	return ClusterConfig{
		N:                n,
		Replica:          DefaultConfig(),
		ClientSubmitCost: 300 * time.Nanosecond,
		RetryTimeout:     5 * time.Millisecond,
	}
}

// Cluster is an Acuerdo group plus one external client machine, all on one
// simulated RDMA fabric. It implements abcast.DurableGroup: client requests
// travel to the leader over an RDMA ring buffer and commit acknowledgments
// travel back the same way, so measured latencies include both client hops
// (as in the paper's experiments).
type Cluster struct {
	Sim      *simnet.Sim
	Fabric   *rdma.Fabric
	Replicas []*Replica
	Client   *rdma.Node

	cfg    ClusterConfig
	reqOut *ringbuf.Sender     // client -> each replica
	reqIn  []*ringbuf.Receiver // request ring tail at replica i
	ackOut []*ringbuf.Sender   // replica i -> client
	ackIn  []*ringbuf.Receiver // ack ring tails at the client

	pending map[uint64]func()

	// OnDeliver, if set, observes every delivery at every replica (after
	// protocol processing); used by tests and the KV store.
	OnDeliver func(replica int, hdr MsgHdr, payload []byte)
}

// NewCluster builds and wires a cluster; call Start to boot it.
func NewCluster(sim *simnet.Sim, fabric *rdma.Fabric, cfg ClusterConfig) *Cluster {
	if cfg.Replica.PollInterval == 0 {
		cfg.Replica = DefaultConfig()
	}
	if cfg.ClientSubmitCost == 0 {
		cfg.ClientSubmitCost = 300 * time.Nanosecond
	}
	if cfg.RetryTimeout == 0 {
		cfg.RetryTimeout = 5 * time.Millisecond
	}
	c := &Cluster{Sim: sim, Fabric: fabric, cfg: cfg, pending: make(map[uint64]func())}

	nodes := make([]*rdma.Node, cfg.N)
	fabIDs := make([]int, cfg.N)
	for i := 0; i < cfg.N; i++ {
		nodes[i] = fabric.AddNode("replica")
		fabIDs[i] = nodes[i].ID
		if cfg.Desched != nil {
			d := *cfg.Desched
			nodes[i].Proc.SetDesched(&d)
		}
	}
	c.Client = fabric.AddNode("client")

	acceptTabs := sst.Build[MsgHdr](nodes, HdrCodec{})
	voteTabs := sst.Build[Vote](nodes, VoteCodec{})
	commitTabs := sst.Build[CommitRow](nodes, CommitCodec{})

	ringCfg := ringbuf.Config{
		Bytes:    cfg.Replica.RingBytes,
		TwoWrite: cfg.Replica.TwoWriteRing,
		Backlog:  true,
	}
	c.Replicas = make([]*Replica, cfg.N)
	for i := 0; i < cfg.N; i++ {
		c.Replicas[i] = &Replica{
			ID:        PID(i),
			N:         cfg.N,
			Cfg:       cfg.Replica,
			Sim:       sim,
			Node:      nodes[i],
			in:        make([]*ringbuf.Receiver, cfg.N),
			fabIDs:    fabIDs,
			acceptSST: acceptTabs[i],
			voteSST:   voteTabs[i],
			commitSST: commitTabs[i],
			relPtr:    make([]int, cfg.N),
			released:  make([]uint64, cfg.N),
		}
	}
	// Broadcast rings: each replica's sender feeds every peer's receiver.
	for i, r := range c.Replicas {
		r.out = ringbuf.NewSender(nodes[i], ringCfg)
		for j, peer := range c.Replicas {
			if i == j {
				continue
			}
			peer.in[i] = r.out.AddPeer(nodes[j])
		}
	}
	// Client request and acknowledgment rings.
	clientRing := ringbuf.Config{Bytes: 1 << 20, Backlog: true}
	c.reqOut = ringbuf.NewSender(c.Client, clientRing)
	c.reqIn = make([]*ringbuf.Receiver, cfg.N)
	c.ackOut = make([]*ringbuf.Sender, cfg.N)
	c.ackIn = make([]*ringbuf.Receiver, cfg.N)
	for i := 0; i < cfg.N; i++ {
		c.reqIn[i] = c.reqOut.AddPeer(nodes[i])
		c.ackOut[i] = ringbuf.NewSender(nodes[i], clientRing)
		c.ackIn[i] = c.ackOut[i].AddPeer(c.Client)
	}
	for i, r := range c.Replicas {
		i, r := i, r
		r.OnPoll = func() { c.drainRequests(i) }
		r.OnDeliver = func(hdr MsgHdr, payload []byte) {
			if r.IsLeader() && len(payload) >= 8 {
				// Acknowledge commit to the client.
				if _, err := c.ackOut[i].Send(c.Client.ID, payload[:8]); err != nil {
					panic("acuerdo: ack send failed: " + err.Error())
				}
			}
			if c.OnDeliver != nil {
				c.OnDeliver(i, hdr, payload)
			}
		}
	}
	return c
}

// SetObserver attaches the runtime invariant observer (nil detaches):
// replicas report election wins and committed entries, and the commit SST
// registers its heartbeat cell for per-cell monotonicity. Only the
// heartbeat (u64 at offset 12) registers — the commit header's Cnt field
// legally resets at each epoch change, and the accept and vote SSTs carry
// whole rows that legally regress across epochs. In volatile mode replica
// memory survives restarts (a rejoiner resumes from its committed header),
// so no restart hook fires; durable mode reports RecoverDone and
// DurableFrontier around crash recovery. Call before Start.
func (c *Cluster) SetObserver(o *observe.Observer) {
	for _, r := range c.Replicas {
		r.obs = o
		r.commitSST.Observe = nil
	}
	if o == nil {
		return
	}
	tab := o.RegisterSST("acuerdo.commit", c.cfg.N, CommitCodec{}.Size(), []int{12}, nil)
	for _, r := range c.Replicas {
		r := r
		r.commitSST.Observe = func(self int, row []byte) {
			o.SSTRow(tab, self, int64(c.Sim.Now()), row)
		}
	}
}

// SetDisks attaches one simulated disk per replica and switches the group
// to durable mode (see Replica.SetDisk). Call before Start with exactly N
// devices; nil keeps the legacy volatile model.
func (c *Cluster) SetDisks(devs []*disk.Device) {
	if devs == nil {
		return
	}
	for i, r := range c.Replicas {
		r.SetDisk(devs[i])
	}
}

// DiskRecoveredBytes sums bytes read back from local WALs during crash
// recovery across the group (durable mode only).
func (c *Cluster) DiskRecoveredBytes() int64 {
	var n int64
	for _, r := range c.Replicas {
		n += int64(r.Stats.DiskRecoveredBytes)
	}
	return n
}

// FabricRecoveryBytes sums diff payload bytes re-shipped over the fabric to
// refill crash-lost state across the group (durable mode only).
func (c *Cluster) FabricRecoveryBytes() int64 {
	var n int64
	for _, r := range c.Replicas {
		n += int64(r.Stats.FabricRecoveryBytes)
	}
	return n
}

// Start boots every replica (they elect a first leader) and the client's
// acknowledgment poll loop.
func (c *Cluster) Start() {
	for _, r := range c.Replicas {
		r.Start()
	}
	c.Client.Proc.PollLoop(500*time.Nanosecond, 100*time.Nanosecond, c.drainAcks)
}

// drainRequests feeds client requests arriving at replica i into the
// protocol. Requests reaching a non-leader are dropped (the client resends
// after its retry timeout, as with real leader-redirect schemes).
func (c *Cluster) drainRequests(i int) {
	r := c.Replicas[i]
	for _, payload := range c.reqIn[i].Poll(0) {
		if r.IsLeader() {
			r.Broadcast(payload)
		}
	}
	c.reqIn[i].ReturnCredits()
}

// drainAcks completes client requests as commit acknowledgments arrive.
func (c *Cluster) drainAcks() {
	for i := range c.ackIn {
		for _, ack := range c.ackIn[i].Poll(0) {
			id := abcast.MsgID(ack)
			if done, ok := c.pending[id]; ok {
				delete(c.pending, id)
				if done != nil {
					done()
				}
			}
		}
		c.ackIn[i].ReturnCredits()
	}
}

// Name implements abcast.System.
func (c *Cluster) Name() string { return "acuerdo" }

// Ready implements abcast.System: the group accepts traffic once a leader
// is elected.
func (c *Cluster) Ready() bool { return c.LeaderIdx() >= 0 }

// Size implements abcast.Group.
func (c *Cluster) Size() int { return len(c.Replicas) }

// Crash implements abcast.Group (see Replica.Crash).
func (c *Cluster) Crash(i int) { c.Replicas[i].Crash() }

// Restart implements abcast.Group (see Replica.Restart).
func (c *Cluster) Restart(i int) { c.Replicas[i].Restart() }

// Proc implements abcast.Group.
func (c *Cluster) Proc(i int) *simnet.Proc { return c.Replicas[i].Node.Proc }

// NodeID implements abcast.Group.
func (c *Cluster) NodeID(i int) int { return c.Replicas[i].Node.ID }

// SetDeliver implements abcast.Group over the typed OnDeliver hook.
func (c *Cluster) SetDeliver(fn func(replica int, payload []byte)) {
	c.OnDeliver = func(replica int, _ MsgHdr, payload []byte) { fn(replica, payload) }
}

// LeaderIdx returns the current leader's replica index, or -1 mid-election.
func (c *Cluster) LeaderIdx() int {
	for i, r := range c.Replicas {
		if r.IsLeader() && !r.Node.Crashed() {
			return i
		}
	}
	return -1
}

// Leader returns the current leader replica, or nil.
func (c *Cluster) Leader() *Replica {
	if i := c.LeaderIdx(); i >= 0 {
		return c.Replicas[i]
	}
	return nil
}

// Submit implements abcast.System. The payload's first 8 bytes must be a
// unique request ID (see abcast.PutMsgID). done runs when the client
// observes the commit acknowledgment.
func (c *Cluster) Submit(payload []byte, done func()) {
	id := abcast.MsgID(payload)
	c.pending[id] = done
	c.send(id, payload)
}

func (c *Cluster) send(id uint64, payload []byte) {
	ldr := c.LeaderIdx()
	if ldr < 0 {
		// No leader right now; retry after a beat.
		c.Sim.PostAfter(c.cfg.RetryTimeout, func() { c.resend(id, payload) })
		return
	}
	c.Client.Proc.Pause(c.cfg.ClientSubmitCost)
	if _, err := c.reqOut.Send(c.Replicas[ldr].Node.ID, payload); err != nil {
		panic("acuerdo: request send failed: " + err.Error())
	}
	c.Sim.PostAfter(c.cfg.RetryTimeout, func() { c.resend(id, payload) })
}

// resend retries a request that has not been acknowledged (leader change
// lost it, or it is still in flight — duplicates are absorbed by the
// pending map, mirroring client-side request IDs in real systems).
func (c *Cluster) resend(id uint64, payload []byte) {
	if _, ok := c.pending[id]; !ok {
		return // already acknowledged
	}
	c.send(id, payload)
}

var _ abcast.DurableGroup = (*Cluster)(nil)
