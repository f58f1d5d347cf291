package tcpnet

import "acuerdo/internal/simnet"

// Ensemble is the wiring the three kernel-TCP baselines share, the TCP
// counterpart of ringbuf.ClientLink: N server hosts, one external client
// host, a full mesh of peer connections among the servers, and a request and
// an acknowledgment connection between the client and every server. Servers
// are addressed by index 0..N-1; a protocol's cluster embeds the Ensemble
// and supplies only handlers.
type Ensemble struct {
	nodes []*Node
	mesh  [][]*Conn // mesh[i][j] carries server i -> server j; nil for i == j
	req   []*Conn   // client -> server i
	ack   []*Conn   // server i -> client
}

// NewEnsemble adds n hosts called name and a client host called
// name+"-client" to net, in that order, then connects the mesh (row-major)
// and each server's request and acknowledgment pair. peer(i) handles what the
// other servers send to server i, request(i) what the client sends it, and
// ack what any server sends the client (abcast.Client.Ack). Host ids, queued
// ProvideProcs CPUs and the net's connection order all follow that creation
// order, which every committed fingerprint depends on.
func NewEnsemble(net *Net, name string, n int, peer, request func(i int) func(msg []byte), ack func(msg []byte)) *Ensemble {
	e := &Ensemble{}
	for i := 0; i < n; i++ {
		e.nodes = append(e.nodes, net.AddNode(name))
	}
	client := net.AddNode(name + "-client")
	for i, from := range e.nodes {
		row := make([]*Conn, n)
		for j, to := range e.nodes {
			if i != j {
				row[j] = from.Connect(to, peer(j))
			}
		}
		e.mesh = append(e.mesh, row)
	}
	for i, nd := range e.nodes {
		e.req = append(e.req, client.Connect(nd, request(i)))
		e.ack = append(e.ack, nd.Connect(client, ack))
	}
	return e
}

// Size returns the server count.
func (e *Ensemble) Size() int { return len(e.nodes) }

// Node returns server i's host (crash, recover, liveness).
func (e *Ensemble) Node(i int) *Node { return e.nodes[i] }

// Proc returns the CPU server i runs on.
func (e *Ensemble) Proc(i int) *simnet.Proc { return e.nodes[i].Proc }

// NodeID returns server i's host id on the Net, the address space link
// faults are expressed in.
func (e *Ensemble) NodeID(i int) int { return e.nodes[i].ID }

// Quorum returns the majority size.
func (e *Ensemble) Quorum() int { return len(e.nodes)/2 + 1 }

// Send transmits m from server from to server to; a send to oneself is
// dropped.
func (e *Ensemble) Send(from, to int, m []byte) {
	if c := e.mesh[from][to]; c != nil {
		c.Send(m)
	}
}

// Broadcast sends m from server from to every other server, in index order.
func (e *Ensemble) Broadcast(from int, m []byte) {
	for to := range e.nodes {
		e.Send(from, to, m)
	}
}

// Request sends payload from the client to server to.
func (e *Ensemble) Request(to int, payload []byte) { e.req[to].Send(payload) }

// Ack acknowledges, from server from, the request whose 8-byte id heads
// payload; a payload too short to carry one did not come from the client.
func (e *Ensemble) Ack(from int, payload []byte) {
	if len(payload) < 8 {
		return
	}
	e.ack[from].Send(payload[:8])
}
