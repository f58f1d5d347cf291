// Package maporder is the fixture for the maporder analyzer: protocol side
// effects, outer-state writes, and winner selection inside a map range are
// flagged; data-keyed writes and the collect-then-sort idiom are not.
package maporder

import "sort"

type vote struct {
	epoch uint32
	id    int
}

type server struct {
	votes  map[int]vote
	leader int
	queue  [][]byte
}

func (s *server) send(to int, payload []byte) {}
func (s *server) broadcastCommit(zxid uint64) {}
func (s *server) deliverUpTo(zxid uint64)     {}

// Sending while ranging over a map reorders the wire traffic run-to-run.
func (s *server) badSends(pending map[int][]byte) {
	for to, payload := range pending {
		s.send(to, payload) // want `protocol side effect send\(\.\.\.\) inside range over map`
	}
}

// A count is the same in any order, so ++ and -- need no sorted keys.
func (s *server) goodTally(cur vote) int {
	n := 0
	for _, o := range s.votes {
		if o == cur {
			n++
		}
	}
	return n
}

// The last write wins, and which key comes last is randomized.
func (s *server) badLastWriter() int {
	winner := -1
	for k, v := range s.votes {
		if v.epoch > 0 {
			winner = k // want `write to winner \(declared outside the loop\) accumulates across randomized map order`
		}
	}
	return winner
}

// stepDown is paxos.Server.stepDown with a mutant from DESIGN §6.6's corpus
// that no runtime oracle kills, because no lane deposes a proposer: the
// in-flight values are queued for the next reign in randomized order, which
// is the order that reign proposes them in.
func (s *server) stepDown(inFlight map[uint64][]byte) {
	s.queue = nil
	for _, pl := range inFlight {
		s.queue = append(s.queue, pl) // want `write to field queue inside range over map`
	}
}

// Winner selection by first match depends on which key comes out first.
func (s *server) badWinner() int {
	for id, v := range s.votes {
		if v.epoch > 0 {
			s.leader = id // want `write to field leader inside range over map mutates protocol state`
			break         // want `break inside range over map selects a result`
		}
	}
	return s.leader
}

// Returning a loop variable picks an arbitrary element.
func anyKey(m map[int]vote) int {
	for id := range m {
		return id // want `returning a map-iteration variable selects a winner`
	}
	return -1
}

// Collecting keys without ever sorting them leaks map order to the caller.
func unsortedKeys(m map[int]vote) []int {
	var ids []int
	for id := range m {
		ids = append(ids, id) // want `ids collects map keys in randomized order and is never sorted`
	}
	return ids
}

// The sanctioned idiom: collect keys, sort, then act in deterministic order.
func (s *server) goodSortedSends() {
	ids := make([]int, 0, len(s.votes))
	for id := range s.votes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		s.send(id, nil)
	}
}

// Data-keyed writes are order-independent: the map and slice cells written do
// not depend on iteration order.
func goodKeyedWrites(src map[int]vote, dst map[int]vote, arr []vote) {
	for id, v := range src {
		dst[id] = v
		if id < len(arr) {
			arr[id] = v
		}
		delete(src, id)
	}
}

// Loop-local accumulation never escapes the iteration, so order cannot be
// observed.
func goodLoopLocal(m map[int]vote) {
	for _, v := range m {
		tmp := v.id * 2
		_ = tmp
	}
}
