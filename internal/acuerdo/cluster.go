package acuerdo

import (
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/disk"
	"acuerdo/internal/rdma"
	"acuerdo/internal/ringbuf"
	"acuerdo/internal/simnet"
	"acuerdo/internal/sst"
	"acuerdo/internal/trace"
)

// ClusterConfig parameterizes a full Acuerdo deployment on one fabric.
type ClusterConfig struct {
	// N is the replica count (n = 2f+1).
	N int
	// Replica tunes the protocol; zero value means DefaultConfig.
	Replica Config
	// Desched, if non-nil, injects OS scheduler noise into every replica.
	Desched *simnet.DeschedConfig
	// RetryTimeout is how long the client waits for a commit
	// acknowledgment before resending (only matters across failures).
	RetryTimeout time.Duration
}

// DefaultClusterConfig returns a cluster of n replicas with default tuning.
func DefaultClusterConfig(n int) ClusterConfig {
	return ClusterConfig{
		N:            n,
		Replica:      DefaultConfig(),
		RetryTimeout: 5 * time.Millisecond,
	}
}

// Cluster is an Acuerdo group plus one external client machine, all on one
// simulated RDMA fabric. It implements abcast.DurableGroup: client requests
// travel to the leader over an RDMA ring buffer and commit acknowledgments
// travel back the same way, so measured latencies include both client hops
// (as in the paper's experiments). The embedded Recovery counts, across the
// group and in durable mode only, bytes read back from local WALs on restart
// and diff payload bytes re-shipped over the fabric to refill crash-lost
// state.
type Cluster struct {
	disk.Recovery
	Sim      *simnet.Sim
	Fabric   *rdma.Fabric
	Replicas []*Replica
	Client   *rdma.Node

	cfg      ClusterConfig
	link     *ringbuf.ClientLink // request and acknowledgment rings
	requests *abcast.Client

	// OnDeliver, if set, observes every delivery at every replica (after
	// protocol processing); used by tests and the KV store. payload is the
	// replica log's copy (see Replica.OnDeliver): a handler that keeps it
	// past its own return copies it first.
	OnDeliver func(replica int, hdr MsgHdr, payload []byte)
}

// NewCluster builds and wires a cluster; call Start to boot it.
func NewCluster(sim *simnet.Sim, fabric *rdma.Fabric, cfg ClusterConfig) *Cluster {
	if cfg.Replica.PollInterval == 0 {
		cfg.Replica = DefaultConfig()
	}
	if cfg.RetryTimeout == 0 {
		cfg.RetryTimeout = 5 * time.Millisecond
	}
	c := &Cluster{Sim: sim, Fabric: fabric, cfg: cfg}
	c.requests = abcast.NewClient(sim, c.try, cfg.RetryTimeout, cfg.RetryTimeout)

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
			rel:       make([]relState, cfg.N),
			peers:     make([]peerView, cfg.N),
			recovery:  &c.Recovery,
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
	c.link = ringbuf.NewClientLink(c.Client, nodes)
	for i, r := range c.Replicas {
		i, r := i, r
		r.OnPoll = func() {
			// Requests reaching a non-leader are dropped (the client resends
			// after its retry timeout, as with real leader-redirect schemes),
			// and a leader proposes only what its client-request table admits:
			// a retry whose request is delivered is re-acknowledged, one still
			// in flight here is dropped.
			c.link.Requests(i, func(req []byte) {
				if !r.IsLeader() {
					return
				}
				switch r.sessions.Admit(abcast.MsgID(req)) {
				case abcast.Propose:
					r.Broadcast(req)
				case abcast.Reack:
					c.link.Ack(i, req)
				}
			})
		}
		r.OnDeliver = func(hdr MsgHdr, payload []byte) {
			if r.IsLeader() {
				// Acknowledge commit to the client.
				c.link.Ack(i, payload)
			}
			if c.OnDeliver != nil {
				c.OnDeliver(i, hdr, payload)
			}
		}
	}
	return c
}

// commitCells declares the commit SST's one monotone cell: the heartbeat
// (u64 at offset 12). The commit header's Cnt field legally resets at each
// epoch change, and the accept and vote SSTs carry whole rows that legally
// regress across epochs.
var commitCells = trace.Cells{Table: "acuerdo.commit", U64: []int{12}}

// Subscribe attaches s to the protocol facts the replicas emit (nil
// detaches): proposals, acceptances, deliveries, elections, and the commit
// SST's writes, checked for per-cell monotonicity. In volatile mode replica
// memory survives restarts (a rejoiner resumes from its committed header),
// so no Restart is stated; durable mode states the restart, the recovery
// and the durable frontier. Call before Start.
func (c *Cluster) Subscribe(s trace.Subscriber) {
	for _, r := range c.Replicas {
		r.sub = s
		r.commitSST.Observe = nil
		if s != nil {
			r.commitSST.Observe = func(_ int, row []byte) {
				trace.Emit(nil, s, &trace.Fact{Kind: trace.SSTWrite, Replica: int(r.ID), Node: r.Node.ID,
					At: int64(c.Sim.Now()), Cells: &commitCells, Row: row})
			}
		}
	}
}

// SetDisks attaches one simulated disk per replica and switches the group
// to durable mode: committed entries stream to a background WAL (never on
// the commit critical path — Acuerdo's latency story is unchanged) and
// Restart recovers the committed prefix from the device instead of
// trusting memory. Call before Start with exactly N devices.
func (c *Cluster) SetDisks(devs []*disk.Device) {
	for i, r := range c.Replicas {
		r.dev = devs[i]
		r.store = disk.NewLogStore(devs[i], acuerdoWALName)
		r.store.OnFrontier = r.reportDurable
	}
}

// Start boots every replica (they elect a first leader) and the client's
// acknowledgment poll loop.
func (c *Cluster) Start() {
	for _, r := range c.Replicas {
		r.Start()
	}
	c.link.Start(c.requests.Ack)
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

// Restart implements abcast.Group (see Replica.Restart). A replica that was
// down, not merely paused, may have lost a request record at its dead NIC,
// so the client reconnects to it first.
func (c *Cluster) Restart(i int) {
	if c.Replicas[i].Node.Crashed() {
		c.link.Reconnect(i)
	}
	c.Replicas[i].Restart()
}

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
func (c *Cluster) Submit(payload []byte, done func()) { c.requests.Submit(payload, done) }

// try is the client's send step: one request onto the current leader's
// request ring, or false while there is no leader.
func (c *Cluster) try(_ uint64, payload []byte) bool {
	ldr := c.LeaderIdx()
	if ldr >= 0 {
		c.link.Request(ldr, payload)
	}
	return ldr >= 0
}

var _ abcast.DurableGroup = (*Cluster)(nil)
