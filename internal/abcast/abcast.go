// Package abcast defines the common contract every atomic-broadcast system
// in this repository satisfies, the safety checker that validates the three
// atomic-broadcast properties (Integrity, No Duplication, Total Order), and
// the closed-loop client every experiment drives its load through (Loop, and
// RunClosedLoop for the Figure 8 measurement).
package abcast

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"acuerdo/internal/chunks"
	"acuerdo/internal/digest"
	"acuerdo/internal/disk"
	"acuerdo/internal/metrics"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// System is the uniform interface over Acuerdo and all baselines
// (derecho-leader, derecho-all, apus, libpaxos, zookeeper/zab, etcd/raft).
//
// All methods must be called from inside the simulation (i.e., from event
// callbacks or before the simulation starts).
type System interface {
	// Name identifies the system in reports ("acuerdo", "derecho-leader", ...).
	Name() string
	// Submit broadcasts payload. done, if non-nil, runs at the simulated
	// time the *client* learns the message is committed (it includes the
	// client's request and acknowledgment hops). payload is the caller's
	// again once done runs: a system copies what it keeps (a transport at
	// post time, a log into its own storage), and anything that still holds
	// payload after the ack — an armed retry — looks up its own id before it
	// reads it. A closed loop therefore refills one buffer per window slot
	// (see Requests).
	Submit(payload []byte, done func())
	// Ready reports whether the system currently accepts client traffic
	// (e.g., a leader is elected).
	Ready() bool
}

// Group is the full replica-group contract: a System plus everything a
// harness needs to wire, fault, and observe it. The Cluster type of every
// protocol package implements it natively, so the bench, chaos, and
// placement harnesses drive all seven systems through this interface alone.
// Replica indices run 0..Size()-1 and never name the client host.
//
// Wiring order: Subscribe, (DurableGroup.SetDisks), Start. SetDeliver may
// be called at any time.
type Group interface {
	System
	// Size returns the replica count.
	Size() int
	// LeaderIdx returns the current leader's replica index, or -1 when the
	// group has none (mid-election, or the leader crashed).
	LeaderIdx() int
	// Crash fail-stops replica i through the system's own crash path.
	Crash(i int)
	// Restart brings a crashed replica i back through the system's recovery
	// path; a no-op where the system has no rejoin protocol.
	Restart(i int)
	// Proc returns the simulated CPU replica i runs on.
	Proc(i int) *simnet.Proc
	// NodeID returns replica i's node id on its interconnect (the address
	// space link faults are expressed in).
	NodeID(i int) int
	// Subscribe attaches s to the group's protocol facts (trace.Fact): every
	// fact a replica states reaches s, and then the simulator's tracer. nil
	// detaches; the runtime invariant observer is the subscriber the
	// harnesses attach. Call before Start.
	Subscribe(s trace.Subscriber)
	// SetDeliver installs fn as the group's delivery hook, replacing any
	// previous one: it runs for every delivery at every replica. payload
	// belongs to the system and is only fn's for the call — Acuerdo recycles
	// the bytes once the whole group has committed past them — so a handler
	// that keeps payload past its own return copies it first (the rule ring
	// views carry).
	SetDeliver(fn func(replica int, payload []byte))
	// Start boots the group (replicas elect a first leader).
	Start()
}

// DurableGroup is implemented by groups with a durable storage mode
// (acuerdo, etcd, libpaxos, zookeeper). Derecho and APUS keep their
// paper-faithful volatile model: they are comparison baselines whose
// recovery story the paper does not extend.
type DurableGroup interface {
	Group
	// SetDisks attaches one simulated disk per replica and switches the
	// group to durable mode. Call before Start with exactly Size() devices.
	SetDisks(devs []*disk.Device)
	// DiskRecoveredBytes sums bytes read back from local disks during
	// crash recovery across the group.
	DiskRecoveredBytes() int64
	// FabricRecoveryBytes sums payload bytes re-shipped over the
	// interconnect to refill crash-lost state across the group.
	FabricRecoveryBytes() int64
}

// AwaitReady is the one leader-election warm-up every harness shares: it
// runs sim in 5 ms steps until ready holds, for at most two simulated
// seconds, and reports whether it did.
func AwaitReady(sim *simnet.Sim, ready func() bool) bool {
	for i := 0; i < 400 && !ready(); i++ {
		sim.RunFor(5 * time.Millisecond)
	}
	return ready()
}

// MsgID extracts the 8-byte message identifier that the driver embeds at the
// start of every payload.
func MsgID(payload []byte) uint64 {
	if len(payload) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(payload)
}

// PutMsgID stamps id into payload.
func PutMsgID(payload []byte, id uint64) {
	binary.LittleEndian.PutUint64(payload, id)
}

// Checker validates atomic-broadcast safety across replicas. Protocol
// integration tests feed it every broadcast and every delivery. Its state is
// the property it checks: one agreed sequence and how far along it each
// replica is, so every violation is decided at the delivery that causes it.
type Checker struct {
	// order is the agreed delivery sequence: position k holds the id the
	// first replica to deliver there delivered.
	order chunks.List[uint64]
	// pos maps every broadcast id to its position in order, or undelivered;
	// its key set is the broadcast set.
	pos map[uint64]int
	// next is the per-node delivery cursor: node r has delivered exactly
	// the first next[r] ids of order.
	next []int
	// replayNext is the per-node restart replay cursor: noReplay when the
	// node has no open replay window, otherwise the order position the next
	// re-delivered message must retrace (replayStart before the first
	// re-delivery fixes the starting position).
	replayNext []int
	// err latches the first violation OnDeliver reported (see Err), orderErr
	// the first Total Order violation (see CheckTotalOrder).
	err, orderErr error
}

// undelivered is the pos of an id that was broadcast and not yet delivered
// anywhere; it compares above every position.
const undelivered = int(^uint(0) >> 1)

// Restart replay cursor sentinels (see NodeRestart).
const (
	noReplay    = -2
	replayStart = -1
)

// NewChecker creates a checker for n replicas.
func NewChecker(n int) *Checker {
	c := &Checker{
		pos:        make(map[uint64]int),
		next:       make([]int, n),
		replayNext: make([]int, n),
	}
	for i := range c.replayNext {
		c.replayNext[i] = noReplay
	}
	return c
}

// OnBroadcast records that id was handed to the system by a client.
func (c *Checker) OnBroadcast(id uint64) {
	if _, known := c.pos[id]; !known {
		c.pos[id] = undelivered
	}
}

// NodeRestart opens a replay window for node: a replica that recovers its
// durable state after a crash legally re-applies (and therefore re-delivers)
// a prefix it already delivered, which would otherwise read as a
// No-Duplication violation. Inside the window, re-delivered messages must
// contiguously retrace the node's recorded sequence starting at the first
// re-delivered message's position; the window closes — and fresh messages
// are accepted again — once the retrace reaches the end of the recorded
// sequence, or on the first delivery if no replay happened at all.
func (c *Checker) NodeRestart(node int) { c.replayNext[node] = replayStart }

// OnDeliver records that replica node delivered id. It returns an error
// immediately on an Integrity, No-Duplication or Total Order violation, so
// tests fail at the offending event, and does not record the delivery.
// Re-deliveries are tolerated only inside a restart replay window (see
// NodeRestart) and only in recorded order. A fresh delivery must be the
// agreed id at the node's next position: it defines that position when the
// node is the first to reach it.
func (c *Checker) OnDeliver(node int, id uint64) error {
	p, broadcast := c.pos[id]
	if !broadcast {
		return c.latch(fmt.Errorf("integrity violated: node %d delivered %d which was never broadcast", node, id))
	}
	n := c.next[node]
	if p < n { // node has delivered the first n ids of order, id among them
		if c.replayNext[node] == noReplay {
			return c.latch(fmt.Errorf("no-duplication violated: node %d delivered %d twice", node, id))
		}
		if c.replayNext[node] == replayStart {
			c.replayNext[node] = p
		}
		if p != c.replayNext[node] {
			return c.latch(fmt.Errorf("no-duplication violated: node %d re-delivered %d at position %d after restart, expected contiguous replay at position %d",
				node, id, p, c.replayNext[node]))
		}
		c.replayNext[node]++
		if c.replayNext[node] == n {
			c.replayNext[node] = noReplay // retrace complete
		}
		return nil
	}
	if c.replayNext[node] != noReplay {
		if c.replayNext[node] != replayStart {
			return c.latch(fmt.Errorf("no-duplication violated: node %d delivered fresh message %d mid-replay (retrace at %d of %d)",
				node, id, c.replayNext[node], n))
		}
		// First post-restart delivery is already fresh: no replay occurred.
		c.replayNext[node] = noReplay
	}
	switch {
	case p == n: // a replica ahead of node agreed this position already
	case p == undelivered && n == c.order.Len(): // node is at the frontier
		c.pos[id] = n
		c.order.Append(id)
	default:
		err := fmt.Errorf("total order violated: node %d delivered %d at position %d, the agreed order has %d there",
			node, id, n, c.order.At(n))
		if c.orderErr == nil {
			c.orderErr = err
		}
		return c.latch(err)
	}
	c.next[node] = n + 1
	return nil
}

// latch keeps err if it is the first violation OnDeliver has reported.
func (c *Checker) latch(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}

// Err is a finished run's safety verdict: the first violation OnDeliver
// reported, however many clean deliveries followed it.
func (c *Checker) Err() error { return c.err }

// Delivered returns a copy of the delivery sequence observed at node.
func (c *Checker) Delivered(node int) []uint64 {
	n := c.next[node]
	out := make([]uint64, 0, n)
	for ids := range c.order.Chunks(0, n) {
		out = append(out, ids...)
	}
	return out
}

// fold continues d over node's delivery sequence: its length, then the ids.
func (c *Checker) fold(d digest.Sum, node int) digest.Sum {
	d = d.Uint64(uint64(c.next[node]))
	for ids := range c.order.Chunks(0, c.next[node]) {
		for _, id := range ids {
			d = d.Uint64(id)
		}
	}
	return d
}

// Fingerprint folds every replica's delivery sequence, in replica order,
// into one digest: two same-seed runs must match.
func (c *Checker) Fingerprint() digest.Sum {
	d := digest.Offset
	for node := range c.next {
		d = c.fold(d, node)
	}
	return d
}

// ReplicaFingerprint folds node's delivery sequence alone, for a comparison
// that must name the replica that drifted.
func (c *Checker) ReplicaFingerprint(node int) digest.Sum { return c.fold(digest.Offset, node) }

// CheckTotalOrder reports the prefix property — every replica's delivery
// sequence is a prefix of the agreed order — as the first Total Order
// violation OnDeliver refused, nil if there was none.
func (c *Checker) CheckTotalOrder() error { return c.orderErr }

// Agreement checks the fourth atomic-broadcast property: every message
// committed at one replica is delivered at all live replicas up to the
// committed prefix. The committed prefix is the shortest delivery sequence
// across the tracked replicas (the checker treats every tracked replica as
// live; exclude crashed replicas by building a checker over the survivors).
// minPrefix is the caller's liveness floor: the run must have committed at
// least that many messages everywhere, which keeps a trivially empty prefix
// from passing vacuously. What the replicas hold up to the prefix is one
// sequence by construction, so beyond the floor only a refused delivery
// (CheckTotalOrder) can break it.
func (c *Checker) Agreement(minPrefix int) error {
	if minPrefix < 0 {
		return fmt.Errorf("agreement: negative minPrefix %d", minPrefix)
	}
	if prefix := c.MinDelivered(); prefix < minPrefix {
		return fmt.Errorf("agreement violated: committed prefix is %d messages, caller requires at least %d at every live replica", prefix, minPrefix)
	}
	return c.orderErr
}

// MinDelivered returns the shortest delivery sequence length (the committed
// prefix guaranteed at every replica).
func (c *Checker) MinDelivered() int {
	if len(c.next) == 0 {
		return 0
	}
	return slices.Min(c.next)
}

// LoadConfig parameterizes one closed-loop load point (one x-position in a
// Figure 8 curve).
type LoadConfig struct {
	// Window is the number of outstanding unacknowledged client messages
	// (the paper's load regulator).
	Window int
	// MsgSize is the fixed payload size (10 or 1000 bytes in the paper).
	MsgSize int
	// Warmup and Measure are simulated durations; samples during warmup
	// are discarded.
	Warmup  time.Duration
	Measure time.Duration
	// OnSubmit, if non-nil, observes every message id the instant it is
	// handed to the system — before any delivery can occur. The seed-replay
	// harness uses it to feed the safety checker's broadcast record.
	OnSubmit func(id uint64)
	// MinCommitted, when positive, extends the measurement window
	// adaptively: if fewer than MinCommitted acknowledgments land within
	// Measure, measurement continues in Measure-sized increments until the
	// quota is met or MaxMeasure of simulated time has elapsed. Deeply
	// loaded points (e.g. etcd at window 256, whose loaded latency exceeds
	// the default 20 ms window) would otherwise report quantiles from a
	// handful of samples. Zero disables extension.
	MinCommitted int
	// MaxMeasure caps the adaptive extension; zero means 10× Measure.
	MaxMeasure time.Duration
}

// LoadResult is one measured load point.
type LoadResult struct {
	System     string
	Window     int
	MsgSize    int
	Committed  int
	Latency    metrics.Histogram
	Elapsed    time.Duration
	MBPerSec   float64
	MsgsPerSec float64

	// Decomp attributes the measured latency to pipeline stages; it is
	// populated only when a trace.Tracer was installed on the Sim.
	Decomp *trace.Decomposition
	// Trace is the tracer that observed the run, if any.
	Trace *trace.Tracer
}

// readyPoll is how often Loop re-tests Ready while the system has no leader.
const readyPoll = 50 * time.Microsecond

// Loop is the paper's load regulator (§4.1), the one client shape of every
// experiment: it keeps window requests outstanding by calling issue once per
// request, with ids counting up from 1. issue submits request id to sys and
// arranges for next to run when its commit acknowledgment arrives, which
// issues the following request. While sys is not Ready nothing is issued;
// the slot polls every readyPoll of simulated time instead. Loop only primes
// the window — the caller runs the simulation — and its own work allocates
// nothing per request.
func Loop(sim *simnet.Sim, sys System, window int, issue func(id uint64, next func())) {
	var id uint64
	var next func()
	next = func() {
		if !sys.Ready() {
			sim.After(readyPoll, next)
			return
		}
		id++
		issue(id, next)
	}
	for i := 0; i < window; i++ {
		next()
	}
}

// Request is one closed-loop request record: a payload buffer, the request's
// id and send time, and the Loop continuation it was issued with. Done,
// bound once when the record is created, is the completion to hand Submit.
type Request struct {
	Payload []byte
	ID      uint64
	Sent    simnet.Time
	Done    func() // bound to done
	next    func()
	list    *Requests
}

// Requests is the free list of a closed loop's request records. A window
// bounds how many are out, and a record returns to the list when its ack
// runs — the payload is the caller's again then (System.Submit) — so its
// buffer carries the next request and a loop that takes one record per
// issue allocates nothing once the window is full.
type Requests struct {
	// Size is the length of a new record's Payload.
	Size int
	// OnAck, if non-nil, runs at each acknowledgment before the record is
	// recycled.
	OnAck func(r *Request)
	free  []*Request
}

// Take returns a record for request id, sent at sent, whose ack runs next.
// Its Payload holds whatever the record's last request left there.
func (l *Requests) Take(id uint64, sent simnet.Time, next func()) *Request {
	var r *Request
	if n := len(l.free); n > 0 {
		r = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		r = &Request{Payload: make([]byte, l.Size), list: l}
		r.Done = r.done
	}
	r.ID, r.Sent, r.next = id, sent, next
	return r
}

// done recycles r, then issues the next request, which takes r straight back.
func (r *Request) done() {
	l, next := r.list, r.next
	if l.OnAck != nil {
		l.OnAck(r)
	}
	r.next = nil
	l.free = append(l.free, r)
	next()
}

// RunClosedLoop is Loop plus the measurement window: it drives sys with
// cfg.Window outstanding fixed-size messages, runs the simulation itself
// through warm-up and measurement, and returns the measured point.
func RunClosedLoop(sim *simnet.Sim, sys System, cfg LoadConfig) LoadResult {
	res := LoadResult{System: sys.Name(), Window: cfg.Window, MsgSize: cfg.MsgSize}
	if cfg.MsgSize < 8 {
		cfg.MsgSize = 8
	}
	var (
		measuring  bool
		start, end simnet.Time
	)

	tr := sim.Tracer()
	reqs := Requests{Size: cfg.MsgSize, OnAck: func(r *Request) {
		if measuring {
			res.Latency.Add(sim.Now().Sub(r.Sent))
			res.Committed++
			if tr != nil {
				// Emit the ack marker only for measured messages, so the
				// decomposition covers exactly the histogram's sample set.
				tr.Instant(trace.KAck, -1, int64(sim.Now()), int64(r.ID), 0)
				tr.Add(trace.CtrAcks, 1)
			}
		}
	}}
	Loop(sim, sys, cfg.Window, func(id uint64, next func()) {
		r := reqs.Take(id, sim.Now(), next)
		PutMsgID(r.Payload, id)
		if cfg.OnSubmit != nil {
			cfg.OnSubmit(id)
		}
		if tr != nil {
			tr.Instant(trace.KSubmit, -1, int64(r.Sent), int64(id), 0)
			tr.Add(trace.CtrSubmits, 1)
		}
		sys.Submit(r.Payload, r.Done)
	})
	sim.RunFor(cfg.Warmup)
	measuring = true
	start = sim.Now()
	sim.RunFor(cfg.Measure)
	if cfg.MinCommitted > 0 {
		// Under-filled window: extend measurement one Measure increment at a
		// time until enough samples land (or the cap is hit), so heavily
		// loaded points report quantiles over a usable sample count.
		maxMeasure := cfg.MaxMeasure
		if maxMeasure <= 0 {
			maxMeasure = 10 * cfg.Measure
		}
		for res.Committed < cfg.MinCommitted && sim.Now().Sub(start) < maxMeasure {
			sim.RunFor(cfg.Measure)
		}
	}
	measuring = false
	end = sim.Now()

	res.Elapsed = end.Sub(start)
	res.MBPerSec = metrics.MBPerSec(res.Committed*cfg.MsgSize, res.Elapsed)
	res.MsgsPerSec = metrics.Throughput(res.Committed, res.Elapsed)
	if tr != nil {
		d := tr.Decompose()
		res.Decomp = &d
		res.Trace = tr
	}
	return res
}
