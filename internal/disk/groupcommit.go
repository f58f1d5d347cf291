package disk

// GroupCommit is the write-ahead-log batching pump of etcd and ZooKeeper:
// one flush in flight at a time, callers that arrive meanwhile queue behind
// the next one, and every caller of a batch is released together when its
// flush lands. What a flush is belongs to the owner (a fixed fsync cost on
// the CPU in the volatile model, an append-and-sync on a Device in the
// durable one); the pump only orders them. A cycle allocates one closure per
// batch and nothing per caller.
type GroupCommit struct {
	flush  func(done func())
	busy   bool
	queued []func()
}

// NewGroupCommit returns a pump over flush, which starts one flush covering
// everything the owner has buffered and runs done once it is durable — or
// never, when the device or CPU crashes first (see Reset).
func NewGroupCommit(flush func(done func())) GroupCommit {
	return GroupCommit{flush: flush}
}

// Enqueue runs done after the next flush to start, which is started now
// unless one is already in flight.
func (g *GroupCommit) Enqueue(done func()) {
	g.queued = append(g.queued, done)
	if !g.busy {
		g.busy = true
		g.run()
	}
}

func (g *GroupCommit) run() {
	batch := g.queued
	g.queued = nil
	g.flush(func() {
		for _, done := range batch {
			done()
		}
		if len(g.queued) > 0 {
			g.run()
		} else {
			g.busy = false
		}
	})
}

// Reset forgets the flush in flight and everyone queued: a crash dropped
// their completion, so the owner calls Reset on restart to re-arm the pump.
func (g *GroupCommit) Reset() {
	g.busy = false
	g.queued = nil
}
