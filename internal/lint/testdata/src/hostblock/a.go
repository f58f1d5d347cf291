// Package hostblock exercises the simproc analyzer's host-blocking rules:
// simulation-driven code must not declare or operate on host channels (a
// timer's included) and must not reach for sync / sync/atomic primitives.
package hostblock

import (
	"sync"
	"sync/atomic"
	"time"
)

var mu sync.Mutex // want `sync.Mutex is a host synchronization primitive`

var counter atomic.Uint64 // want `atomic.Uint64 is a host synchronization primitive`

type mailbox struct {
	inbox chan int // want `inbox declares a host channel`
}

// A timer's channel is a host channel that fires on the wall clock.
func badTimer(c <-chan time.Time) { // want `c declares a host channel`
	<-c // want `channel receive blocks on the host scheduler`
}

func channelOps(ch chan int) { // want `ch declares a host channel`
	ch <- 1   // want `channel send blocks on the host scheduler`
	v := <-ch // want `channel receive blocks on the host scheduler`
	_ = v
	close(ch)      // want `close of a host channel`
	for range ch { // want `range over a channel`
	}
	select { // want `select blocks on host channels`
	default:
	}
}

func syncOps(done *uint64) {
	// Method calls on an already-flagged value are not re-reported: the
	// declaration above is the single root cause.
	mu.Lock()
	mu.Unlock()
	counter.Add(1)
	atomic.AddUint64(done, 1) // want `atomic.AddUint64 is a host synchronization primitive`
	var wg sync.WaitGroup     // want `sync.WaitGroup is a host synchronization primitive`
	wg.Wait()
}

// server stands for a paxos proposer, scheduling on the simulated clock.
type server struct {
	leading bool
	after   func(d time.Duration, fn func())
}

func (s *server) armFailover() { s.after(time.Millisecond, s.armFailover) }

// stepDownWait is paxos.Server.stepDown with a mutant from DESIGN §6.6's
// corpus that no runtime oracle kills, because no lane deposes a proposer:
// it waits on a WaitGroup for a simulated event, which can only run once it
// returns, so the first proposer to be deposed deadlocks the simulation.
func (s *server) stepDownWait() {
	s.leading = false
	var wg sync.WaitGroup // want `sync.WaitGroup is a host synchronization primitive`
	wg.Add(1)
	s.after(0, wg.Done)
	wg.Wait()
	s.armFailover()
}

// cleanOps pins the negative space: plain values, maps, and function calls
// are untouched.
func cleanOps(m map[int]int) int {
	total := 0
	for k := range m {
		total += k
	}
	return total
}
