package tcpnet

import (
	"testing"
	"time"

	"acuerdo/internal/simnet"
)

func faultNet(n int) (*simnet.Sim, *Net) {
	sim := simnet.New(7)
	p := DefaultParams()
	p.Jitter = nil // deterministic latencies for unit tests
	net := New(sim, p)
	for i := 0; i < n; i++ {
		net.AddNode("h")
	}
	return sim, net
}

// One-way cut: a→b messages park and redeliver in order on heal; b→a flows.
func TestNetPartitionOneWay(t *testing.T) {
	sim, net := faultNet(2)
	a, b := net.Node(0), net.Node(1)
	var gotB, gotA [][]byte
	// Handlers copy what they keep: the frame is recycled after return.
	ab := a.Connect(b, func(m []byte) { gotB = append(gotB, append([]byte(nil), m...)) })
	ba := b.Connect(a, func(m []byte) { gotA = append(gotA, append([]byte(nil), m...)) })

	net.PartitionOneWay(0, 1)
	ab.Send([]byte("m1"))
	ab.Send([]byte("m2"))
	ba.Send([]byte("r1"))
	sim.RunFor(time.Millisecond)
	if len(gotB) != 0 {
		t.Fatalf("messages crossed a cut direction: %q", gotB)
	}
	if len(gotA) != 1 || string(gotA[0]) != "r1" {
		t.Fatalf("reverse direction blocked: %q", gotA)
	}

	net.HealOneWay(0, 1)
	sim.RunFor(time.Millisecond)
	if len(gotB) != 2 || string(gotB[0]) != "m1" || string(gotB[1]) != "m2" {
		t.Fatalf("parked messages not redelivered in order: %q", gotB)
	}
}

// A crashed sender's parked messages die with the process: nothing ghosts
// through after heal.
func TestNetCrashDropsParked(t *testing.T) {
	sim, net := faultNet(2)
	a, b := net.Node(0), net.Node(1)
	var got [][]byte
	ab := a.Connect(b, func(m []byte) { got = append(got, append([]byte(nil), m...)) })

	net.PartitionOneWay(0, 1)
	ab.Send([]byte("doomed"))
	a.Crash()
	net.HealOneWay(0, 1)
	sim.RunFor(time.Millisecond)
	if len(got) != 0 {
		t.Fatalf("crashed sender's parked messages delivered: %q", got)
	}
}

// maxRetransmits mirrors the cap simnet.Links charges per message under a
// p=1 loss window.
const maxRetransmits = 16

// A p=1 loss window delays every message by the full retransmit penalty
// but never drops it; clearing the window restores normal latency.
func TestNetLossWindow(t *testing.T) {
	sim, net := faultNet(2)
	a, b := net.Node(0), net.Node(1)
	var got [][]byte
	ab := a.Connect(b, func(m []byte) { got = append(got, append([]byte(nil), m...)) })

	net.SetLossOneWay(0, 1, 1.0)
	ab.Send([]byte("lossy"))
	penalty := time.Duration(maxRetransmits) * net.Params.RetransmitDelay
	sim.RunFor(penalty - time.Microsecond)
	if len(got) != 0 {
		t.Fatal("delivery did not pay the retransmit penalty")
	}
	sim.RunFor(penalty)
	if len(got) != 1 || string(got[0]) != "lossy" {
		t.Fatalf("loss window dropped data: %q", got)
	}

	net.SetLossOneWay(0, 1, 0)
	ab.Send([]byte("clean"))
	sim.RunFor(100 * time.Microsecond)
	if len(got) != 2 || string(got[1]) != "clean" {
		t.Fatalf("delivery still delayed after loss window cleared: %q", got)
	}
}

// A latency spike delays one direction only.
func TestNetLatencySpikeOneWay(t *testing.T) {
	sim, net := faultNet(2)
	a, b := net.Node(0), net.Node(1)
	var got, rev [][]byte
	ab := a.Connect(b, func(m []byte) { got = append(got, append([]byte(nil), m...)) })
	ba := b.Connect(a, func(m []byte) { rev = append(rev, append([]byte(nil), m...)) })

	spike := time.Millisecond
	net.SetLatencySpikeOneWay(0, 1, spike)
	ab.Send([]byte("slow"))
	ba.Send([]byte("fast"))
	sim.RunFor(spike / 2)
	if len(got) != 0 {
		t.Fatal("spiked message arrived early")
	}
	if len(rev) != 1 {
		t.Fatal("reverse direction affected by one-way spike")
	}
	sim.RunFor(spike)
	if len(got) != 1 {
		t.Fatal("spiked message never arrived")
	}
}
