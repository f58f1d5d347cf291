package tcpnet

import (
	"testing"
	"time"

	"acuerdo/internal/simnet"
)

// testEnsemble wires n servers that record what reaches them: peer[i] and
// reqs[i] collect copies of the messages server i's handlers saw, acks what
// the client saw.
type testEnsemble struct {
	*Ensemble
	sim        *simnet.Sim
	net        *Net
	peer, reqs [][]string
	acks       []string
}

func newTestEnsemble(sim *simnet.Sim, n int, procs []*simnet.Proc) *testEnsemble {
	t := &testEnsemble{sim: sim, net: New(sim, DefaultParams()), peer: make([][]string, n), reqs: make([][]string, n)}
	t.net.ProvideProcs(procs)
	t.Ensemble = NewEnsemble(t.net, "srv", n,
		func(i int) func([]byte) { return func(m []byte) { t.peer[i] = append(t.peer[i], string(m)) } },
		func(i int) func([]byte) { return func(m []byte) { t.reqs[i] = append(t.reqs[i], string(m)) } },
		func(m []byte) { t.acks = append(t.acks, string(m)) })
	return t
}

// TestEnsembleCreationOrder pins what every committed fingerprint of the TCP
// baselines rests on: servers take host ids 0..N-1 and the client id N, and
// CPUs queued by the placement layer back the servers, in order, never the
// client.
func TestEnsembleCreationOrder(t *testing.T) {
	sim := simnet.New(1)
	procs := []*simnet.Proc{simnet.NewProc(sim, 100, "m0"), simnet.NewProc(sim, 101, "m1"), simnet.NewProc(sim, 102, "m2")}
	e := newTestEnsemble(sim, 3, procs)
	if e.Size() != 3 || e.Quorum() != 2 {
		t.Fatalf("Size %d Quorum %d, want 3 and 2", e.Size(), e.Quorum())
	}
	for i := 0; i < 3; i++ {
		if e.NodeID(i) != i || e.Node(i) != e.net.Node(i) {
			t.Fatalf("server %d has host id %d", i, e.NodeID(i))
		}
		if e.Proc(i) != procs[i] {
			t.Fatalf("server %d runs on %q, want the queued CPU %q", i, e.Proc(i).Name, procs[i].Name)
		}
	}
	if len(e.net.nodes) != 4 {
		t.Fatalf("%d hosts on the net, want 3 servers and the client", len(e.net.nodes))
	}
	client := e.net.Node(3)
	if client.Proc.Name != "srv-client" {
		t.Fatalf("host 3 runs on %q, want a fresh client CPU", client.Proc.Name)
	}
	// The net's connection order is the order cuts heal and crashes sweep in:
	// mesh row-major skipping self, then request and ack per server.
	want := [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}, {3, 0}, {0, 3}, {3, 1}, {1, 3}, {3, 2}, {2, 3}}
	if len(e.net.conns) != len(want) {
		t.Fatalf("%d connections, want %d", len(e.net.conns), len(want))
	}
	for k, c := range e.net.conns {
		if got := [2]int{c.from.ID, c.to.ID}; got != want[k] {
			t.Fatalf("connection %d is %v, want %v", k, got, want[k])
		}
	}
	e.Request(1, []byte("req"))
	if client.MsgsSent != 1 {
		t.Fatalf("Request sent from a host other than the client")
	}
}

func TestEnsembleSendBroadcastAck(t *testing.T) {
	e := newTestEnsemble(simnet.New(1), 3, nil)
	e.Broadcast(1, []byte("b"))
	e.Send(0, 2, []byte("s"))
	e.Send(2, 2, []byte("self"))
	e.Request(0, []byte("request-with-payload"))
	e.Ack(2, []byte("request-with-payload"))
	e.Ack(2, []byte("short"))
	e.sim.RunFor(time.Millisecond)
	if got := e.peer; len(got[0]) != 1 || got[0][0] != "b" || len(got[1]) != 0 || len(got[2]) != 2 {
		t.Fatalf("peer deliveries %q: want the broadcast at 0 and 2 only, and the send at 2", got)
	}
	if len(e.reqs[0]) != 1 || e.reqs[0][0] != "request-with-payload" || len(e.reqs[1])+len(e.reqs[2]) != 0 {
		t.Fatalf("request deliveries %q", e.reqs)
	}
	if len(e.acks) != 1 || e.acks[0] != "request-" {
		t.Fatalf("client saw acks %q, want exactly the 8-byte request id", e.acks)
	}
}

func TestEnsembleSendToCrashedDropped(t *testing.T) {
	e := newTestEnsemble(simnet.New(1), 3, nil)
	e.Node(1).Crash()
	e.Broadcast(0, []byte("x"))
	e.Send(1, 0, []byte("from the dead"))
	e.sim.RunFor(time.Millisecond)
	if len(e.peer[1]) != 0 || len(e.peer[0]) != 0 || len(e.peer[2]) != 1 {
		t.Fatalf("deliveries %q: a crashed server neither receives nor sends", e.peer)
	}
	e.Node(1).Recover()
	e.Send(0, 1, []byte("y"))
	e.sim.RunFor(time.Millisecond)
	if len(e.peer[1]) != 1 || e.peer[1][0] != "y" {
		t.Fatalf("recovered server saw %q, want only the post-recovery send", e.peer[1])
	}
}

// TestEnsembleSendAllocFree pins Send, from the call through the peer
// handler's return, at zero allocations: the Ensemble adds an index and a
// nil check to Conn.Send, nothing else.
func TestEnsembleSendAllocFree(t *testing.T) {
	sim := simnet.New(1)
	seen := 0
	e := NewEnsemble(New(sim, DefaultParams()), "srv", 3,
		func(int) func([]byte) { return func(m []byte) { seen += len(m) } },
		func(int) func([]byte) { return func([]byte) {} },
		func([]byte) {})
	msg := make([]byte, 1000)
	cycle := func() {
		e.Send(0, 1, msg)
		e.Broadcast(2, msg)
		sim.RunFor(500 * time.Microsecond)
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("Send+Broadcast allocate %.1f objects per cycle, want 0", avg)
	}
	if seen != 202*3*1000 {
		t.Fatalf("handlers saw %d bytes, want %d", seen, 202*3*1000)
	}
}
