package derecho

import (
	"slices"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/rdma"
	"acuerdo/internal/ringbuf"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// Cluster wraps a Group with an external client machine and implements
// abcast.Group. In leader mode all requests go to the view leader; in
// all-to-all mode the client spreads requests round-robin across members
// (each member multicasts its own share, as in the paper's derecho-all
// runs). A member acknowledges a request to the client when it delivers
// its own message (the virtual-synchrony stability point).
type Cluster struct {
	Sim    *simnet.Sim
	Fabric *rdma.Fabric
	Group  *Group

	client   *rdma.Node
	link     *ringbuf.ClientLink // request and acknowledgment rings
	requests *abcast.Client
	target   map[uint64]int // in-flight request -> member it was sent to
	rr       int

	// OnDeliver observes every data delivery at every member.
	OnDeliver func(replica, sender int, idx uint64, payload []byte)
}

// NewCluster builds a Derecho group of n members plus client on the fabric.
func NewCluster(sim *simnet.Sim, fabric *rdma.Fabric, n int, mode Mode) *Cluster {
	c := &Cluster{Sim: sim, Fabric: fabric, target: make(map[uint64]int)}
	c.requests = abcast.NewClient(sim, c.try, 10*time.Millisecond, time.Millisecond)
	c.Group = NewGroup(sim, fabric, n, mode)
	c.client = fabric.AddNode("derecho-client")
	members := make([]*rdma.Node, n)
	for i := range members {
		members[i] = c.Group.Node(i)
	}
	c.link = ringbuf.NewClientLink(c.client, members)
	c.Group.OnDeliver = func(replica, sender int, idx uint64, payload []byte) {
		if replica == sender {
			c.link.Ack(replica, payload)
		}
		if c.OnDeliver != nil {
			c.OnDeliver(replica, sender, idx, payload)
		}
	}
	return c
}

// Start boots the group, per-member request pumps, and the client loop.
func (c *Cluster) Start() {
	c.Group.Start()
	for i := range c.Group.nodes {
		i := i
		c.Group.Node(i).Proc.PollLoop(pollInterval, 100*time.Nanosecond, func() {
			c.link.Requests(i, func(req []byte) {
				switch c.Group.nodes[i].sessions.Admit(abcast.MsgID(req)) {
				case abcast.Propose:
					c.Group.Submit(i, req)
				case abcast.Reack:
					// Retry of a message that survived a view change (its
					// dead sender never acked it): re-ack, don't remulticast.
					c.link.Ack(i, req)
				}
			})
		})
	}
	c.link.Start(func(ack []byte) {
		delete(c.target, abcast.MsgID(ack))
		c.requests.Ack(ack)
	})
}

// Name implements abcast.System.
func (c *Cluster) Name() string { return c.Group.mode.String() }

// Ready implements abcast.System.
func (c *Cluster) Ready() bool { return c.LeaderIdx() >= 0 }

// liveProbe returns a live member whose view state we can consult.
func (c *Cluster) liveProbe() int {
	for i := range c.Group.nodes {
		if !c.Group.Node(i).Crashed() {
			return i
		}
	}
	return 0
}

// Submit implements abcast.System.
func (c *Cluster) Submit(payload []byte, done func()) { c.requests.Submit(payload, done) }

// try is the client's send step. A request already handed to a member is
// held (false) until that member has crashed AND the view has moved past it:
// a live member never loses a queued request (it holds it across a wedge),
// and re-sending before the ragged trim settles could double-deliver a
// message that made the trim. After the view change the member-side
// delivered-id check absorbs the survivors.
func (c *Cluster) try(id uint64, payload []byte) bool {
	probe := c.liveProbe()
	if t, sent := c.target[id]; sent &&
		(!c.Group.Node(t).Crashed() || slices.Contains(c.Group.Members(probe), t)) {
		return false // in a live member's hands, or crashed but not yet excluded
	}
	var target int
	if c.Group.mode == LeaderMode {
		target = c.Group.Sender(probe)
		if target < 0 || c.Group.Node(target).Crashed() {
			return false
		}
	} else {
		members := c.Group.Members(probe)
		if len(members) == 0 {
			return false
		}
		target = members[c.rr%len(members)]
		c.rr++
	}
	c.target[id] = target
	c.link.Request(target, payload)
	return true
}

// LeaderIdx returns the current view leader if it is alive, else -1 (view
// change in progress). For the chaos engine's Leader sentinel.
func (c *Cluster) LeaderIdx() int {
	s := c.Group.Sender(c.liveProbe())
	if s >= 0 && !c.Group.Node(s).Crashed() {
		return s
	}
	return -1
}

// Size implements abcast.Group.
func (c *Cluster) Size() int { return len(c.Group.nodes) }

// Proc implements abcast.Group.
func (c *Cluster) Proc(i int) *simnet.Proc { return c.Group.Node(i).Proc }

// NodeID implements abcast.Group.
func (c *Cluster) NodeID(i int) int { return c.Group.Node(i).ID }

// SetDeliver implements abcast.Group over the typed OnDeliver hook.
func (c *Cluster) SetDeliver(fn func(replica int, payload []byte)) {
	c.OnDeliver = func(replica, _ int, _ uint64, payload []byte) { fn(replica, payload) }
}

// Subscribe attaches s to the group's protocol facts (see Group.Subscribe).
// Call before Start.
func (c *Cluster) Subscribe(s trace.Subscriber) { c.Group.Subscribe(s) }

// Crash fail-stops member i; the survivors wedge, agree on the ragged
// trim, and continue in a shrunken view.
func (c *Cluster) Crash(i int) { c.Group.Node(i).Crash() }

// Restart is deliberately a no-op: this model implements Derecho's
// failure path (view change, ragged trim) but not its join protocol, so a
// removed member stays out and the group keeps running in the shrunken
// view. A restarted replica rejoining would need a state-transfer round
// this reproduction does not model.
func (c *Cluster) Restart(i int) {}

var _ abcast.Group = (*Cluster)(nil)
