// Package simproc is the fixture for the simproc analyzer's goroutine rule:
// a go statement is flagged; plain function values and deterministic
// callback scheduling are not. The host-channel and sync rules have their
// own fixture, hostblock.
package simproc

import "time"

// A goroutine races the single-threaded event loop.
func badGo(step func()) {
	go step() // want `go statement introduces host scheduling`
}

// server stands for a paxos proposer, scheduling on the simulated clock.
type server struct {
	leading bool
	after   func(d time.Duration, fn func())
}

func (s *server) armFailover() { s.after(time.Millisecond, s.armFailover) }

// stepDownGo is paxos.Server.stepDown with a mutant from DESIGN §6.6's corpus
// that no runtime oracle kills, because no lane deposes a proposer: the
// failover timer is re-armed on a host goroutine, racing the event loop.
func (s *server) stepDownGo() {
	s.leading = false
	go s.armFailover() // want `go statement introduces host scheduling`
}

// Deterministic alternatives: storing callbacks and invoking them inline is
// exactly what simnet.Proc and the event heap do.
func goodCallbacks(fns []func()) {
	for _, fn := range fns {
		fn()
	}
}
