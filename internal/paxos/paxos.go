// Package paxos implements the libpaxos baseline: classic multi-Paxos over
// kernel TCP, with a distinguished proposer, one consensus instance per
// message, and acceptors broadcasting ACCEPTED notifications to all
// learners (n^2 messages per value — the per-message consensus overhead the
// paper identifies as a throughput bottleneck). A bounded instance window
// pipelines proposals, as libpaxos' pre-execution window does.
package paxos

import (
	"encoding/binary"
	"sort"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/disk"
	"acuerdo/internal/simnet"
	"acuerdo/internal/tcpnet"
	"acuerdo/internal/trace"
)

// Calibrated libpaxos costs.
const (
	// window bounds outstanding instances at the proposer.
	window = 128
	// proposerOpCost / acceptorOpCost / learnerOpCost are per-message CPU.
	proposerOpCost = 4 * time.Microsecond
	acceptorOpCost = 2 * time.Microsecond
	learnerOpCost  = 1 * time.Microsecond
	// leaderTimeout triggers proposer failover.
	leaderTimeout = 10 * time.Millisecond
)

const (
	mAccept   = byte(iota) // proposer -> acceptors (phase 2a)
	mAccepted              // acceptor -> learners (phase 2b)
	mPrepare               // new proposer -> acceptors (phase 1a)
	mPromise               // acceptor -> proposer (phase 1b)
	mPing
	mLearnReq // restarted learner -> peers: chosen values from my frontier
	mLearn    // peer -> restarted learner: chosen records
)

type acceptedVal struct {
	ballot  uint64
	payload []byte
}

// Server hosts a proposer, an acceptor, and a learner (libpaxos roles
// colocated, as in the paper's deployment).
type Server struct {
	c    *Cluster
	id   int
	node *tcpnet.Node

	// Acceptor state.
	promised uint64
	accepted map[uint64]acceptedVal // instance -> highest accepted

	// Learner state.
	learned   map[uint64]map[int]uint64 // instance -> acceptor -> ballot
	chosen    map[uint64][]byte
	delivered uint64 // instances [0,delivered) delivered

	// Proposer state.
	leading    bool
	ballot     uint64
	nextInst   uint64
	inFlight   map[uint64][]byte
	queue      [][]byte
	promises   map[int][]byte // acceptor -> raw promise payload
	preparing  bool
	lastPing   simnet.Time
	highestIns uint64

	// The client-request table: updated at delivery, reseeded with the
	// re-driven values when this proposer wins phase 1, consulted by submit.
	sessions abcast.Sessions

	// Durable mode (SetDisks): the acceptor's promise/accept log and the
	// learner's chosen/delivered log share one device, and the delivery
	// frontier at the last crash feeds the fabric recovery-bytes tally.
	dev               *disk.Device
	astore            *disk.LogStore
	lstore            *disk.LogStore
	preCrashDelivered uint64
}

// Cluster is a libpaxos deployment plus a client host; implements
// abcast.DurableGroup. The embedded Recovery counts bytes read back from
// local logs on restart (durable mode only) and payload bytes re-shipped
// over the network to refill a restarted learner's pre-crash instances.
type Cluster struct {
	*tcpnet.Ensemble
	disk.Recovery
	Sim      *simnet.Sim
	Servers  []*Server
	requests *abcast.Client
	sub      trace.Subscriber

	// OnDeliver observes deliveries at every learner.
	OnDeliver func(replica int, instance uint64, payload []byte)
}

// NewCluster builds a deployment of n servers; server 0 is the initial
// proposer.
func NewCluster(sim *simnet.Sim, net *tcpnet.Net, n int) *Cluster {
	c := &Cluster{Sim: sim}
	c.requests = abcast.NewClient(sim, c.try, 30*time.Millisecond, time.Millisecond)
	c.Servers = make([]*Server, n)
	for i := range c.Servers {
		c.Servers[i] = &Server{
			c: c, id: i,
			accepted: make(map[uint64]acceptedVal),
			learned:  make(map[uint64]map[int]uint64),
			chosen:   make(map[uint64][]byte),
			inFlight: make(map[uint64][]byte),
			promises: make(map[int][]byte),
		}
	}
	c.Ensemble = tcpnet.NewEnsemble(net, "paxos", n,
		func(i int) func([]byte) { return c.Servers[i].handle },
		func(i int) func([]byte) { return c.Servers[i].submit },
		c.requests.Ack)
	for i, s := range c.Servers {
		s.node = c.Node(i)
	}
	return c
}

// Subscribe attaches s to the protocol facts the servers emit (nil
// detaches): promises, votes, learned values, deliveries, and phase-1 wins.
// In volatile mode acceptor and learner state survive restarts in memory, so
// no Restart is stated; durable mode states promises and votes only once
// they are fsynced (the externally visible state), plus the recovery and the
// durable frontier. Call before Start.
func (c *Cluster) Subscribe(s trace.Subscriber) { c.sub = s }

// emit states one protocol fact at this server.
func (s *Server) emit(k trace.FactKind, term, index uint64, id int64) {
	trace.Emit(s.c.Sim.Tracer(), s.c.sub, &trace.Fact{Kind: k, Replica: s.id, Node: s.id,
		At: int64(s.c.Sim.Now()), Term: term, Index: index, ID: id})
}

// Per-device WAL names: the acceptor's promise/accept log and the learner's
// chosen/delivered log. Accept records are keyed by instance (last record
// wins on recovery); chosen records are keyed by instance and written once.
const (
	paxosAcceptWAL = "acceptor.wal"
	paxosLearnWAL  = "learner.wal"
)

// Metadata keys. The acceptor's promise is synced before any promise or
// accepted reply leaves the node (ballot monotonicity must survive a crash);
// the learner's delivery frontier is a recovery hint — stale merely means a
// longer catch-up over the fabric.
const (
	metaPromised  = uint8(1)
	metaDelivered = uint8(2)
)

// SetDisks attaches one simulated disk per server and switches the
// deployment to durable mode: acceptors sync their promise and accepted
// value before replying, learners log chosen values and their delivery
// frontier, and Restart recovers from the device instead of trusting
// memory. Call before Start with exactly N devices.
func (c *Cluster) SetDisks(devs []*disk.Device) {
	for i, s := range c.Servers {
		s.dev = devs[i]
		s.astore = disk.NewLogStore(devs[i], paxosAcceptWAL)
		s.lstore = disk.NewLogStore(devs[i], paxosLearnWAL)
		s.lstore.OnFrontier = s.reportDurable
	}
}

// Start boots the deployment with server 0 as proposer (ballot = id+1).
func (c *Cluster) Start() {
	p := c.Servers[0]
	p.leading = true
	p.ballot = 1
	p.schedulePing()
	for _, s := range c.Servers[1:] {
		s.lastPing = c.Sim.Now()
		s.armFailover()
	}
}

// enc: [kind][ballot u64][instance u64][from u32][payload]
func enc(kind byte, ballot, inst uint64, from int, payload []byte) []byte {
	m := make([]byte, 21+len(payload))
	m[0] = kind
	binary.LittleEndian.PutUint64(m[1:], ballot)
	binary.LittleEndian.PutUint64(m[9:], inst)
	binary.LittleEndian.PutUint32(m[17:], uint32(from))
	copy(m[21:], payload)
	return m
}

// submit handles a client value at this server's proposer.
func (s *Server) submit(payload []byte) {
	if !s.leading || s.preparing || len(payload) < 8 {
		return // client retries
	}
	id := abcast.MsgID(payload)
	switch s.sessions.Admit(id) {
	case abcast.Reack:
		// Retry of a value already chosen and delivered (its ack died with
		// an old proposer): re-ack, never start a second instance.
		s.c.Ack(s.id, payload)
		return
	case abcast.Drop:
		return // already queued or in flight this reign
	}
	s.sessions.Pend(id)
	s.queue = append(s.queue, append([]byte(nil), payload...))
	s.pump()
}

// pump starts instances while the window has room.
func (s *Server) pump() {
	for len(s.queue) > 0 && len(s.inFlight) < window {
		payload := s.queue[0]
		s.queue = s.queue[1:]
		inst := s.nextInst
		s.nextInst++
		s.inFlight[inst] = payload
		s.node.Proc.Charge(proposerOpCost)
		m := enc(mAccept, s.ballot, inst, s.id, payload)
		s.c.Broadcast(s.id, m)
		s.emit(trace.Propose, s.ballot, inst, trace.ID(payload))
		// Local acceptor accepts directly.
		s.onAccept(s.ballot, inst, payload)
	}
}

func (s *Server) handle(m []byte) {
	kind := m[0]
	ballot := binary.LittleEndian.Uint64(m[1:])
	inst := binary.LittleEndian.Uint64(m[9:])
	from := int(binary.LittleEndian.Uint32(m[17:]))
	payload := m[21:]
	switch kind {
	case mAccept:
		s.onAccept(ballot, inst, payload)
	case mAccepted:
		s.onAccepted(ballot, inst, from, payload)
	case mPrepare:
		s.onPrepare(ballot, inst, from)
	case mPromise:
		s.onPromise(ballot, from, payload)
	case mPing:
		if s.leading && ballot > s.ballot {
			s.stepDown()
		}
		s.lastPing = s.c.Sim.Now()
	case mLearnReq:
		s.onLearnReq(inst, from)
	case mLearn:
		s.onLearn(payload)
	}
}

// stepDown demotes a deposed proposer: a higher ballot won, so this reign's
// queue and in-flight set are abandoned (clients retry to the new proposer).
func (s *Server) stepDown() {
	s.leading = false
	s.preparing = false
	s.queue = nil
	s.inFlight = make(map[uint64][]byte)
	s.lastPing = s.c.Sim.Now()
	s.armFailover()
}

// onAccept is phase 2a at the acceptor: accept if the ballot is current and
// notify all learners.
func (s *Server) onAccept(ballot, inst uint64, payload []byte) {
	if ballot < s.promised {
		return
	}
	s.promised = ballot
	s.node.Proc.Charge(acceptorOpCost)
	pl := append([]byte(nil), payload...)
	s.accepted[inst] = acceptedVal{ballot: ballot, payload: pl}
	notify := func() {
		s.emit(trace.Vote, ballot, inst, trace.ID(pl))
		s.c.Broadcast(s.id, enc(mAccepted, ballot, inst, s.id, pl))
		s.onAccepted(ballot, inst, s.id, pl) // local learner
	}
	if s.astore == nil {
		notify()
		return
	}
	// The ACCEPTED notification must not outrun durable storage: a crash
	// after notifying but before syncing could un-accept a value a quorum
	// was counted on. Group commit batches concurrent accepts into one sync.
	s.astore.AppendEntry(inst, ballot, pl, nil)
	s.astore.SetMeta(metaPromised, s.promised, nil)
	s.astore.Flush(notify)
}

// onAccepted is phase 2b at the learner: a quorum of acceptors on the same
// ballot chooses the value; deliver in instance order.
func (s *Server) onAccepted(ballot, inst uint64, from int, payload []byte) {
	s.node.Proc.Charge(learnerOpCost)
	lm := s.learned[inst]
	if lm == nil {
		lm = make(map[int]uint64)
		s.learned[inst] = lm
	}
	lm[from] = ballot
	n := 0
	for _, b := range lm {
		if b == ballot {
			n++
		}
	}
	if n >= s.c.Quorum() {
		if _, ok := s.chosen[inst]; !ok {
			s.chosen[inst] = append([]byte(nil), payload...)
			s.emit(trace.Learn, 0, inst, trace.ID(payload))
			if s.lstore != nil {
				// Background append; the delivery-frontier flush (or the
				// next one) makes it durable. A chosen value lost to a crash
				// is refetched from peers, so no sync is needed here.
				s.lstore.AppendEntry(inst, 0, s.chosen[inst], nil)
			}
		}
		s.deliver()
	}
}

func (s *Server) deliver() {
	before := s.delivered
	defer func() {
		if s.delivered > before {
			s.persistDelivered()
		}
	}()
	for {
		payload, ok := s.chosen[s.delivered]
		if !ok {
			return
		}
		inst := s.delivered
		s.delivered++
		delete(s.learned, inst)
		s.emit(trace.Deliver.Acked(s.leading), 0, inst, trace.ID(payload))
		s.sessions.Deliver(abcast.MsgID(payload))
		if s.c.OnDeliver != nil {
			s.c.OnDeliver(s.id, inst, payload)
		}
		if s.leading {
			delete(s.inFlight, inst)
			s.c.Ack(s.id, payload)
			s.pump()
		}
	}
}

// persistDelivered records the learner's delivery frontier in the background
// and reports the durable frontier to the observer once the fsync lands. The
// flush also syncs every chosen-value append queued before it, so a durable
// frontier n implies every instance below n is durably chosen.
func (s *Server) persistDelivered() {
	if s.lstore == nil {
		return
	}
	n := s.delivered
	s.lstore.SetMeta(metaDelivered, n, nil)
	s.lstore.FlushFrontier(n)
}

// reportDurable, the hook on every learner store the server opens, states
// that the first n instances are durably delivered.
func (s *Server) reportDurable(n uint64) { s.emit(trace.Durable, 0, n, 0) }

// --- proposer failover (phase 1) ---

func (s *Server) schedulePing() {
	if !s.leading || s.node.Crashed() {
		return
	}
	s.c.Broadcast(s.id, enc(mPing, s.ballot, 0, s.id, nil))
	s.c.Sim.After(leaderTimeout/4, s.schedulePing)
}

func (s *Server) armFailover() {
	s.c.Sim.After(leaderTimeout, func() {
		if s.node.Crashed() || s.leading {
			return
		}
		if s.c.Sim.Now().Sub(s.lastPing) >= leaderTimeout {
			// Only the lowest-ranked live non-leader takes over, to
			// avoid duels.
			if s.shouldTakeOver() {
				s.takeOver()
				return
			}
		}
		s.armFailover()
	})
}

func (s *Server) shouldTakeOver() bool {
	for j := 0; j < s.id; j++ {
		if !s.c.Servers[j].node.Crashed() {
			return false
		}
	}
	return true
}

// takeOver runs phase 1 for all instances at or above the local delivery
// frontier, with a ballot strictly above anything seen.
func (s *Server) takeOver() {
	s.leading = true
	s.preparing = true
	// Ballots are node-disjoint (ballot ≡ id+1 mod N), so no two reigns can
	// ever share a ballot number — the property the single-value-per-ballot
	// invariant rests on. A plain promised+offset scheme lets two sequential
	// proposers that overheard different prefixes of each other's reigns
	// collide on one ballot, and acceptors would accept both proposers'
	// (possibly different) values for an instance under it.
	n := uint64(s.c.Size())
	s.ballot = (s.promised/n+1)*n + uint64(s.id) + 1
	s.emit(trace.Suspect, s.ballot, 0, 0)
	s.promises = make(map[int][]byte)
	s.nextInst = s.delivered
	s.c.Broadcast(s.id, enc(mPrepare, s.ballot, s.delivered, s.id, nil))
	// Local promise.
	s.onPrepare(s.ballot, s.delivered, s.id)
	s.schedulePing()
}

// onPrepare is phase 1a at the acceptor: promise and report accepted values
// for instances >= fromInst as [inst u64][ballot u64][len u32][payload]...
func (s *Server) onPrepare(ballot, fromInst uint64, from int) {
	if ballot < s.promised {
		return
	}
	if s.leading && from != s.id && ballot > s.ballot {
		s.stepDown()
	}
	s.promised = ballot
	reply := func() {
		s.emit(trace.Promise, ballot, 0, 0)
		var insts []uint64
		for inst := range s.accepted {
			if inst >= fromInst {
				insts = append(insts, inst)
			}
		}
		sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
		var buf []byte
		for _, inst := range insts {
			av := s.accepted[inst]
			rec := make([]byte, 20+len(av.payload))
			binary.LittleEndian.PutUint64(rec, inst)
			binary.LittleEndian.PutUint64(rec[8:], av.ballot)
			binary.LittleEndian.PutUint32(rec[16:], uint32(len(av.payload)))
			copy(rec[20:], av.payload)
			buf = append(buf, rec...)
		}
		if from == s.id {
			s.onPromise(ballot, s.id, buf)
		} else {
			s.c.Send(s.id, from, enc(mPromise, ballot, fromInst, s.id, buf))
		}
	}
	if s.astore == nil {
		reply()
		return
	}
	// A promise is binding only once durable: sync it before replying so no
	// post-crash incarnation can accept a lower ballot this reply excluded.
	s.astore.SetMeta(metaPromised, s.promised, nil)
	s.astore.Flush(reply)
}

// onPromise is phase 1b at the new proposer: on a quorum of promises,
// re-propose the highest-ballot value per instance and resume.
func (s *Server) onPromise(ballot uint64, from int, payload []byte) {
	if !s.preparing || ballot != s.ballot {
		return
	}
	s.promises[from] = append([]byte(nil), payload...)
	if len(s.promises) < s.c.Quorum() {
		return
	}
	s.preparing = false
	s.emit(trace.Win, s.ballot, 0, int64(s.id))
	// Merge reported values, keeping the highest ballot per instance.
	best := make(map[uint64]acceptedVal)
	for _, buf := range s.promises {
		for off := 0; off+20 <= len(buf); {
			inst := binary.LittleEndian.Uint64(buf[off:])
			b := binary.LittleEndian.Uint64(buf[off+8:])
			ln := int(binary.LittleEndian.Uint32(buf[off+16:]))
			pl := buf[off+20 : off+20+ln]
			if cur, ok := best[inst]; !ok || b > cur.ballot {
				best[inst] = acceptedVal{ballot: b, payload: append([]byte(nil), pl...)}
			}
			off += 20 + ln
		}
	}
	var insts []uint64
	for inst := range best {
		insts = append(insts, inst)
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	// Re-driven values are this reign's pending set; a client retry for one
	// must not open a second instance.
	s.sessions.Reseed()
	for _, inst := range insts {
		av := best[inst]
		if inst >= s.nextInst {
			s.nextInst = inst + 1
		}
		s.sessions.Pend(abcast.MsgID(av.payload))
		s.inFlight[inst] = av.payload
		s.c.Broadcast(s.id, enc(mAccept, s.ballot, inst, s.id, av.payload))
		s.onAccept(s.ballot, inst, av.payload)
	}
	s.pump()
}

// --- learner catch-up and fault injection (chaos engine surface) ---

// onLearnReq answers a restarted learner with every chosen value at or
// above its delivery frontier, in instance order.
func (s *Server) onLearnReq(fromInst uint64, from int) {
	var insts []uint64
	for inst := range s.chosen {
		if inst >= fromInst {
			insts = append(insts, inst)
		}
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	var buf []byte
	for _, inst := range insts {
		pl := s.chosen[inst]
		rec := make([]byte, 12+len(pl))
		binary.LittleEndian.PutUint64(rec, inst)
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(pl)))
		copy(rec[12:], pl)
		buf = append(buf, rec...)
	}
	if len(buf) > 0 {
		s.c.Send(s.id, from, enc(mLearn, 0, 0, s.id, buf))
	}
}

// onLearn adopts chosen values reported by a peer, filling the instance
// gaps a crash opened, and resumes in-order delivery.
func (s *Server) onLearn(payload []byte) {
	for off := 0; off+12 <= len(payload); {
		inst := binary.LittleEndian.Uint64(payload[off:])
		ln := int(binary.LittleEndian.Uint32(payload[off+8:]))
		pl := payload[off+12 : off+12+ln]
		if _, ok := s.chosen[inst]; !ok {
			s.chosen[inst] = append([]byte(nil), pl...)
			s.emit(trace.Learn, 0, inst, trace.ID(pl))
			if s.lstore != nil {
				s.lstore.AppendEntry(inst, 0, s.chosen[inst], nil)
			}
			if inst < s.preCrashDelivered {
				s.c.Refetched(len(pl))
			}
		}
		off += 12 + ln
	}
	s.deliver()
}

// SetDeliver implements abcast.Group over the typed OnDeliver hook.
func (c *Cluster) SetDeliver(fn func(replica int, payload []byte)) {
	c.OnDeliver = func(replica int, _ uint64, payload []byte) { fn(replica, payload) }
}

// Crash fail-stops replica i. In durable mode the device's volatile write
// cache is dropped too (only fsynced bytes survive, modulo an armed torn
// write).
func (c *Cluster) Crash(i int) {
	s := c.Servers[i]
	s.preCrashDelivered = s.delivered
	s.node.Crash()
	s.dev.Crash(c.Sim.Rand())
}

// Restart recovers a crashed replica as a non-leading acceptor/learner;
// DESIGN §6.8 tabulates what survives in each storage mode (the proposer role
// never does: clients fail over). The learner closes the instance gap its
// downtime opened by asking peers for chosen values from its delivery
// frontier, then re-arms failover.
func (c *Cluster) Restart(i int) {
	s := c.Servers[i]
	if !s.node.Crashed() {
		return
	}
	s.node.Recover()
	s.leading = false
	s.preparing = false
	s.queue = nil
	s.inFlight = make(map[uint64][]byte)
	s.promises = make(map[int][]byte)
	s.lastPing = c.Sim.Now()
	if s.astore != nil {
		s.restartDurable()
		return
	}
	s.c.Broadcast(s.id, enc(mLearnReq, 0, s.delivered, s.id, nil))
	s.armFailover()
}

// restartDurable rebuilds the replica from its device: recover the
// acceptor's promise and accepted values, the learner's chosen values and
// delivery frontier, then catch up from peers and re-arm failover.
func (s *Server) restartDurable() {
	// The learner may re-deliver a stale tail (its frontier metadata lags
	// delivery): the restart re-arms the observer's delivery base.
	s.emit(trace.Restart, 0, 0, 0)
	// Wipe every in-memory trace of the pre-crash incarnation.
	s.promised = 0
	s.accepted = make(map[uint64]acceptedVal)
	s.learned = make(map[uint64]map[int]uint64)
	s.chosen = make(map[uint64][]byte)
	s.delivered = 0
	s.ballot = 0
	s.nextInst = 0
	s.highestIns = 0
	s.sessions = abcast.Sessions{}
	logs := s.c.Recovery.Reopen(s.dev, s.node.Proc, paxosAcceptWAL, paxosLearnWAL)
	arec, lrec := logs[0], logs[1]
	s.astore, s.lstore = arec.Store, lrec.Store
	s.lstore.OnFrontier = s.reportDurable
	s.promised = arec.Meta[metaPromised]
	// Replay in log order: a re-accept at a higher ballot is a later record
	// and supersedes the earlier one for its instance.
	for _, e := range arec.Entries {
		s.accepted[e.Seq] = acceptedVal{ballot: e.Term, payload: e.Data}
	}
	for _, e := range lrec.Entries {
		s.chosen[e.Seq] = e.Data
	}
	s.delivered = lrec.Meta[metaDelivered]
	// Instances below the recovered frontier were delivered pre-crash and
	// are not delivered again: record them in the client-request table so a
	// retry cannot open a new instance.
	for inst := uint64(0); inst < s.delivered; inst++ {
		s.sessions.Deliver(abcast.MsgID(s.chosen[inst]))
	}
	// The recovered "log length" is the contiguous chosen prefix: every
	// durably delivered instance is durably chosen (persistDelivered syncs
	// chosen appends before the frontier), so it is at least the frontier.
	contig := s.delivered
	for {
		if _, ok := s.chosen[contig]; !ok {
			break
		}
		contig++
	}
	s.emit(trace.Recovered, s.delivered, contig, 0)
	// Resume in-order delivery from the recovered frontier (re-delivering
	// the stale tail the frontier metadata missed), then ask peers for
	// everything newer.
	s.deliver()
	s.c.Broadcast(s.id, enc(mLearnReq, 0, s.delivered, s.id, nil))
	s.armFailover()
}

// --- cluster client API ---

// LeaderIdx returns the active proposer or -1.
func (c *Cluster) LeaderIdx() int {
	for i, s := range c.Servers {
		if s.leading && !s.preparing && !s.node.Crashed() {
			return i
		}
	}
	return -1
}

// Name implements abcast.System.
func (c *Cluster) Name() string { return "libpaxos" }

// Ready implements abcast.System.
func (c *Cluster) Ready() bool { return c.LeaderIdx() >= 0 }

// Submit implements abcast.System.
func (c *Cluster) Submit(payload []byte, done func()) { c.requests.Submit(payload, done) }

// try is the client's send step: one request to the current proposer, or false
// while there is none.
func (c *Cluster) try(_ uint64, payload []byte) bool {
	ldr := c.LeaderIdx()
	if ldr >= 0 {
		c.Request(ldr, payload)
	}
	return ldr >= 0
}

var _ abcast.DurableGroup = (*Cluster)(nil)
