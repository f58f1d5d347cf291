package paxos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"acuerdo/internal/simnet"
	"acuerdo/internal/tcpnet"
)

// The tests in this file drive one server's handlers directly, on a
// deployment that is never started, and read only what a peer or the
// application sees: deliveries, the promise reply's bytes, the delivery
// frontier and highestIns. They expect what the per-instance maps this state
// was kept in before produced; refPromise is that code's promise reply.

// idleServer returns server 1 of an unstarted three-server deployment and the
// deliveries it makes, each as "instance:payload".
func idleServer(t *testing.T) (*Server, *[]string) {
	t.Helper()
	sim := simnet.New(1)
	c := NewCluster(sim, tcpnet.New(sim, tcpnet.DefaultParams()), 3)
	var got []string
	c.OnDeliver = func(r int, inst uint64, payload []byte) {
		if r == 1 {
			got = append(got, fmt.Sprintf("%d:%s", inst, payload))
		}
	}
	return c.Servers[1], &got
}

// val is version v of the value a test chooses or accepts for inst.
func val(inst uint64, v byte) []byte { return fmt.Appendf(nil, "value-%d-%c", inst, v) }

// learnRecs encodes version v of insts' values as chosen records, as a peer's
// mLearn carries them.
func learnRecs(v byte, insts ...uint64) []byte {
	var buf []byte
	for _, inst := range insts {
		buf = binary.LittleEndian.AppendUint64(buf, inst)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val(inst, v))))
		buf = append(buf, val(inst, v)...)
	}
	return buf
}

// span returns the instances [from, to).
func span(from, to uint64) []uint64 {
	var s []uint64
	for i := from; i < to; i++ {
		s = append(s, i)
	}
	return s
}

// sameDeliveries requires got to be the deliveries of instances [0, n), each
// with the version version(inst) of its value.
func sameDeliveries(t *testing.T, got []string, n uint64, version func(uint64) byte) {
	t.Helper()
	if uint64(len(got)) != n {
		t.Fatalf("%d delivered, want %d", len(got), n)
	}
	for i := range n {
		if want := fmt.Sprintf("%d:%s", i, val(i, version(i))); got[i] != want {
			t.Fatalf("delivery %d is %s, want %s", i, got[i], want)
		}
	}
}

// TestLearnFarAboveFrontier: a chosen value learned far above the delivery
// frontier waits there, raises highestIns and is delivered in its turn once
// the gap below it is learned; a second learn of an instance, in the same
// reply or a later one, keeps the first value.
func TestLearnFarAboveFrontier(t *testing.T) {
	const far = 5000
	s, got := idleServer(t)
	s.onLearn(learnRecs('a', far))
	if s.delivered != 0 || s.highestIns != far+1 || len(*got) != 0 {
		t.Fatalf("after learning %d alone: frontier %d, highestIns %d, %d delivered", far, s.delivered, s.highestIns, len(*got))
	}
	s.onLearn(learnRecs('b', far, 7, 7)) // far again, and 7 twice in one reply
	s.onLearn(learnRecs('a', span(0, 2500)...))
	if s.delivered != 2500 {
		t.Fatalf("after learning [0, 2500): frontier %d, want 2500", s.delivered)
	}
	s.onLearn(learnRecs('c', span(2000, far)...)) // [2000, 2500) again
	if s.delivered != far+1 || s.highestIns != far+1 {
		t.Fatalf("frontier %d, highestIns %d, want both %d", s.delivered, s.highestIns, far+1)
	}
	sameDeliveries(t, *got, far+1, func(i uint64) byte {
		switch {
		case i == 7:
			return 'b'
		case i >= 2500 && i < far:
			return 'c'
		}
		return 'a'
	})
}

// TestVotesFarAboveFrontier: ACCEPTED notifications far above the frontier
// choose a value there once a quorum of acceptors' latest votes share a
// ballot: one acceptor's repeated vote counts once, and an acceptor that
// votes again at another ballot counts for that ballot only.
func TestVotesFarAboveFrontier(t *testing.T) {
	const far = 3000
	s, got := idleServer(t)
	s.onAccepted(2, far, 0, val(far, 'a'))
	s.onAccepted(2, far, 0, val(far, 'a'))
	s.onAccepted(3, far, 2, val(far, 'b'))
	if s.highestIns != 0 {
		t.Fatalf("chosen with one vote at each of two ballots: highestIns %d", s.highestIns)
	}
	s.onAccepted(2, far, 2, val(far, 'a')) // acceptor 2's latest is ballot 2 now
	if s.highestIns != far+1 || s.delivered != 0 {
		t.Fatalf("two latest votes at ballot 2: highestIns %d, frontier %d, want %d and 0", s.highestIns, s.delivered, far+1)
	}
	s.onAccepted(3, far, 0, val(far, 'b')) // chosen already: a later quorum changes nothing
	s.onAccepted(3, far, 1, val(far, 'b'))
	s.onLearn(learnRecs('c', span(0, far)...))
	sameDeliveries(t, *got, far+1, func(i uint64) byte {
		if i == far {
			return 'a'
		}
		return 'c'
	})
	// A vote below the frontier, for a delivered instance, changes nothing.
	s.onAccepted(9, 10, 0, val(10, 'z'))
	s.onAccepted(9, 10, 2, val(10, 'z'))
	if s.delivered != far+1 || len(*got) != far+1 {
		t.Fatalf("votes below the frontier moved it to %d, %d delivered", s.delivered, len(*got))
	}
}

// refPromise is the promise reply of the map-keyed acceptor: every accepted
// instance at or above fromInst, in instance order, as [inst u64][ballot u64]
// [len u32][payload].
func refPromise(accepted map[uint64]acceptedVal, fromInst uint64) []byte {
	var insts []uint64
	for inst := range accepted {
		if inst >= fromInst {
			insts = append(insts, inst)
		}
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	var buf []byte
	for _, inst := range insts {
		av := accepted[inst]
		rec := make([]byte, 20+len(av.payload))
		binary.LittleEndian.PutUint64(rec, inst)
		binary.LittleEndian.PutUint64(rec[8:], av.ballot)
		binary.LittleEndian.PutUint32(rec[16:], uint32(len(av.payload)))
		copy(rec[20:], av.payload)
		buf = append(buf, rec...)
	}
	return buf
}

// TestPromiseReplyGappedRange: an acceptor that accepted a gapped set of
// instances — one of them again at a higher ballot, one far above the rest,
// one refused below its promise — promises from the middle of the set with
// exactly the bytes the map-keyed acceptor sent.
func TestPromiseReplyGappedRange(t *testing.T) {
	s, _ := idleServer(t)
	s.onAccept(2, 3, val(3, 'a'))
	s.onAccept(2, 4, val(4, 'a'))
	s.onAccept(5, 4, val(4, 'b')) // a re-accept at a higher ballot replaces
	s.onAccept(5, 7, val(7, 'b'))
	s.onAccept(4, 10, val(10, 'c')) // below the promise of 5: refused
	s.onAccept(5, 1000, val(1000, 'd'))
	accepted := map[uint64]acceptedVal{
		3:    {2, val(3, 'a')},
		4:    {5, val(4, 'b')},
		7:    {5, val(7, 'b')},
		1000: {5, val(1000, 'd')},
	}
	for _, from := range []uint64{0, 4, 5, 8, 1000, 1001} {
		// The server runs phase 1 itself, so its own reply lands in
		// promises; one vote short of a quorum, it goes no further.
		s.preparing, s.ballot, s.promises = true, 9+from, map[int][]byte{}
		s.onPrepare(s.ballot, from, s.id)
		if got, want := s.promises[s.id], refPromise(accepted, from); !bytes.Equal(got, want) {
			t.Fatalf("promise from instance %d: %d bytes %x, want %d bytes %x", from, len(got), got, len(want), want)
		}
	}
}

// TestClusterSizeBound: a deployment larger than a learner's per-instance
// vote array is refused when it is built, not at its first vote.
func TestClusterSizeBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("a deployment of %d servers was built", maxAcceptors+1)
		}
	}()
	sim := simnet.New(1)
	NewCluster(sim, tcpnet.New(sim, tcpnet.DefaultParams()), maxAcceptors+1)
}
