package disk

// GroupCommit is the write-ahead-log batching pump of etcd and ZooKeeper:
// one flush in flight at a time, callers that arrive meanwhile queue behind
// the next one, and every caller of a batch is released together when its
// flush lands. What a flush is belongs to the owner (a fixed fsync cost on
// the CPU in the volatile model, an append-and-sync on a Device in the
// durable one); the pump only orders them. It allocates nothing per caller
// or per batch: the two queues swap at each flush, and the completion it
// hands the owner is bound once.
type GroupCommit struct {
	flush         func(done func())
	busy          bool
	queued, batch []func()
	released      func() // bound to release on the first flush
}

// NewGroupCommit returns a pump over flush, which starts one flush covering
// everything the owner has buffered and runs done once it is durable — or
// never, when the device or CPU crashes first (see Reset). The owner stores
// the value where it stays: the completion binds to that address.
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
	g.batch, g.queued = g.queued, g.batch[:0]
	if g.released == nil {
		g.released = g.release
	}
	g.flush(g.released)
}

// release runs the landed batch. busy stays set throughout, so a caller that
// enqueues lands in the other queue and rides the next flush.
func (g *GroupCommit) release() {
	for _, done := range g.batch {
		done()
	}
	clear(g.batch)
	if len(g.queued) > 0 {
		g.run()
	} else {
		g.busy = false
	}
}

// Reset forgets the flush in flight and everyone queued: a crash dropped
// their completion, so the owner calls Reset on restart to re-arm the pump.
func (g *GroupCommit) Reset() {
	g.busy = false
	clear(g.queued)
	clear(g.batch)
	g.queued, g.batch = g.queued[:0], g.batch[:0]
}
