package derecho

import (
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/observe"
	"acuerdo/internal/rdma"
	"acuerdo/internal/ringbuf"
	"acuerdo/internal/simnet"
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

	client *rdma.Node
	reqOut *ringbuf.Sender
	reqIn  []*ringbuf.Receiver
	ackOut []*ringbuf.Sender
	ackIn  []*ringbuf.Receiver

	pending map[uint64]func()
	target  map[uint64]int // in-flight request -> member it was sent to
	rr      int

	// OnDeliver observes every data delivery at every member.
	OnDeliver func(replica, sender int, idx uint64, payload []byte)
}

// NewCluster builds a Derecho group plus client on the fabric.
func NewCluster(sim *simnet.Sim, fabric *rdma.Fabric, cfg Config) *Cluster {
	c := &Cluster{
		Sim: sim, Fabric: fabric,
		pending: make(map[uint64]func()),
		target:  make(map[uint64]int),
	}
	c.Group = NewGroup(sim, fabric, cfg)
	c.client = fabric.AddNode("derecho-client")
	ringCfg := ringbuf.Config{Bytes: 1 << 20, Backlog: true}
	c.reqOut = ringbuf.NewSender(c.client, ringCfg)
	c.reqIn = make([]*ringbuf.Receiver, cfg.N)
	c.ackOut = make([]*ringbuf.Sender, cfg.N)
	c.ackIn = make([]*ringbuf.Receiver, cfg.N)
	for i := 0; i < cfg.N; i++ {
		c.reqIn[i] = c.reqOut.AddPeer(c.Group.Node(i))
		c.ackOut[i] = ringbuf.NewSender(c.Group.Node(i), ringCfg)
		c.ackIn[i] = c.ackOut[i].AddPeer(c.client)
	}
	c.Group.OnDeliver = func(replica, sender int, idx uint64, payload []byte) {
		if replica == sender && len(payload) >= 8 {
			if _, err := c.ackOut[replica].Send(c.client.ID, payload[:8]); err != nil {
				panic("derecho: client ack failed: " + err.Error())
			}
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
	for i := 0; i < c.Group.Cfg.N; i++ {
		i := i
		c.Group.Node(i).Proc.PollLoop(c.Group.Cfg.PollInterval, 100*time.Nanosecond, func() {
			for _, req := range c.reqIn[i].Poll(0) {
				if len(req) >= 8 && c.Group.DeliveredAt(i, abcast.MsgID(req)) {
					// Retry of a message that survived a view change (its
					// dead sender never acked it): re-ack, don't remulticast.
					if _, err := c.ackOut[i].Send(c.client.ID, req[:8]); err != nil {
						panic("derecho: client ack failed: " + err.Error())
					}
					continue
				}
				c.Group.Submit(i, req)
			}
			c.reqIn[i].ReturnCredits()
		})
	}
	c.client.Proc.PollLoop(500*time.Nanosecond, 100*time.Nanosecond, func() {
		for i := range c.ackIn {
			for _, ack := range c.ackIn[i].Poll(0) {
				id := abcast.MsgID(ack)
				if done, ok := c.pending[id]; ok {
					delete(c.pending, id)
					delete(c.target, id)
					if done != nil {
						done()
					}
				}
			}
			c.ackIn[i].ReturnCredits()
		}
	})
}

// Name implements abcast.System.
func (c *Cluster) Name() string { return c.Group.Cfg.Mode.String() }

// Ready implements abcast.System.
func (c *Cluster) Ready() bool { return c.LeaderIdx() >= 0 }

// liveProbe returns a live member whose view state we can consult.
func (c *Cluster) liveProbe() int {
	for i := 0; i < c.Group.Cfg.N; i++ {
		if !c.Group.Node(i).Crashed() {
			return i
		}
	}
	return 0
}

// Submit implements abcast.System.
func (c *Cluster) Submit(payload []byte, done func()) {
	id := abcast.MsgID(payload)
	c.pending[id] = done
	c.send(id, payload)
}

func (c *Cluster) send(id uint64, payload []byte) {
	var target int
	probe := c.liveProbe()
	if c.Group.Cfg.Mode == LeaderMode {
		target = c.Group.Sender(probe)
		if target < 0 || c.Group.Node(target).Crashed() {
			c.Sim.After(time.Millisecond, func() { c.retry(id, payload) })
			return
		}
	} else {
		members := c.Group.Members(probe)
		if len(members) == 0 {
			c.Sim.After(time.Millisecond, func() { c.retry(id, payload) })
			return
		}
		target = members[c.rr%len(members)]
		c.rr++
	}
	c.target[id] = target
	c.client.Proc.Pause(300 * time.Nanosecond)
	if _, err := c.reqOut.Send(c.Group.Node(target).ID, payload); err != nil {
		panic("derecho: request send failed: " + err.Error())
	}
	c.Sim.After(10*time.Millisecond, func() { c.retry(id, payload) })
}

// retry re-sends an unacknowledged request, but only once its member has
// crashed AND the view has moved past it: a live member never loses a
// queued request (it holds it across a wedge), and re-sending before the
// ragged trim settles could double-deliver a message that made the trim.
// After the view change the member-side delivered-id check absorbs the
// survivors.
func (c *Cluster) retry(id uint64, payload []byte) {
	if _, ok := c.pending[id]; !ok {
		return // acknowledged
	}
	t, ok := c.target[id]
	if ok && !c.Group.Node(t).Crashed() {
		// Still in a live member's hands; keep waiting.
		c.Sim.After(time.Millisecond, func() { c.retry(id, payload) })
		return
	}
	if ok {
		for _, m := range c.Group.Members(c.liveProbe()) {
			if m == t {
				// Crashed but the survivors have not excluded it yet.
				c.Sim.After(time.Millisecond, func() { c.retry(id, payload) })
				return
			}
		}
	}
	c.send(id, payload)
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
func (c *Cluster) Size() int { return c.Group.Cfg.N }

// Proc implements abcast.Group.
func (c *Cluster) Proc(i int) *simnet.Proc { return c.Group.Node(i).Proc }

// NodeID implements abcast.Group.
func (c *Cluster) NodeID(i int) int { return c.Group.Node(i).ID }

// SetDeliver implements abcast.Group over the typed OnDeliver hook.
func (c *Cluster) SetDeliver(fn func(replica int, payload []byte)) {
	c.OnDeliver = func(replica, _ int, _ uint64, payload []byte) { fn(replica, payload) }
}

// SetObserver attaches the runtime invariant observer to the group (see
// Group.SetObserver). Call before Start.
func (c *Cluster) SetObserver(o *observe.Observer) { c.Group.SetObserver(o) }

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
