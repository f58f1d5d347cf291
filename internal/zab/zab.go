// Package zab implements the ZooKeeper atomic broadcast baseline (Zab,
// Junqueira et al., DSN 2011) over the simulated kernel-TCP transport, as
// deployed by ZooKeeper: a leader proposes, every follower explicitly ACKs
// every proposal after group-committing it to its transaction log, the
// leader commits on a quorum of ACKs and distributes COMMIT messages.
//
// Contrast with Acuerdo (the point of the paper's comparison): every
// message needs an explicit per-message acknowledgment over TCP, every hop
// pays the kernel path and a receiver wakeup, and ZooKeeper's election
// requires a post-election synchronization/verification exchange before the
// new leader can serve.
package zab

import (
	"encoding/binary"
	"slices"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/chunks"
	"acuerdo/internal/disk"
	"acuerdo/internal/simnet"
	"acuerdo/internal/tcpnet"
	"acuerdo/internal/trace"
)

// Calibrated ZooKeeper 3.4-era costs.
const (
	// leaderOpCost is leader CPU per client request (request processor
	// pipeline).
	leaderOpCost = 6 * time.Microsecond
	// followerOpCost is follower CPU per proposal.
	followerOpCost = 3 * time.Microsecond
	// fsyncCost is the transaction-log group-commit cost; concurrent
	// proposals share one sync.
	fsyncCost = 80 * time.Microsecond
	// heartbeatInterval and electTimeout drive failure detection.
	heartbeatInterval = 1 * time.Millisecond
	electTimeout      = 8 * time.Millisecond
)

// Wire message kinds. Election follows ZooKeeper's recovery phase: the
// elected leader announces (mNewLeader), each follower reports its last
// zxid (mFollowerInfo), the leader ships a per-follower DIFF of missing
// entries (mSyncDiff), the follower persists it and acknowledges
// (mNewLeaderAck), and on a quorum of acks the leader activates and
// commits its whole inherited history.
const (
	mPropose = byte(iota)
	mAck
	mCommit
	mVote
	mNewLeader
	mFollowerInfo
	mSyncDiff
	mNewLeaderAck
	mPing
)

// entry is one logged proposal, 40 B. chunk names the arena chunk payload
// lives in (0: none, the payload is empty).
type entry struct {
	zxid    uint64
	chunk   uint32
	payload []byte
}

type roleT int

const (
	looking roleT = iota
	leading
	following
)

// Server is one ZooKeeper replica.
type Server struct {
	c    *Cluster
	id   int
	node *tcpnet.Node

	role      roleT
	active    bool // leader only: finished the post-election sync round
	synced    bool // follower only: received this epoch's DIFF
	epoch     uint32
	counter   uint32 // per-epoch proposal counter (leader)
	leader    int
	lastZxid  uint64
	log       chunks.List[entry] // trimmed below the frontier in volatile mode (see trim)
	committed int                // entries [0,committed) delivered
	acks      map[uint64]int
	nlAcked   map[int]bool

	// The client-request table: updated at delivery, reseeded from the log
	// above the committed prefix when this server wins, consulted by
	// clientRequest.
	sessions abcast.Sessions

	txnLog disk.GroupCommit // transaction-log group commit, over flush
	// logged is what each txnLog caller waits for, in the order they
	// enqueued; GroupCommit releases them in that order through released,
	// bound to onLogged.
	logged     []waiter
	loggedHead int
	released   func()

	// arena holds the log's payload bytes, a claim per entry and per request
	// not yet proposed; reqFree recycles the records of client requests
	// waiting for the leader's CPU.
	arena   chunks.Arena
	reqFree []*request

	// Durable mode (SetDisks): transaction log on a simulated device, the
	// count of log entries already written to it, and the log length at the
	// last crash (for the fabric recovery-bytes tally).
	dev         *disk.Device
	store       *disk.LogStore
	walLen      int
	preCrashLen int

	votes    map[int]voteT
	lastPing simnet.Time

	// ping and checkPing are schedulePing and checkLeader, bound once: the
	// heartbeat timers re-arm every interval.
	ping, checkPing func()
}

// waiter is one transaction-log caller: what to send, or count, once the
// group commit it rode lands.
type waiter struct {
	kind waitKind
	zxid uint64
}

type waitKind uint8

const (
	ownAck       waitKind = iota // the leader's own ack of zxid
	followerAck                  // a follower's ACK of zxid to its leader
	newLeaderAck                 // a follower's NEWLEADERACK for the adopted DIFF
)

// request is a client request between its arrival and the leader's CPU
// getting to it. Records are free-listed on the Server and run is bound once,
// so queueing one allocates nothing in steady state.
type request struct {
	s   *Server
	id  uint64
	e   entry  // the payload's copy and its claim on the arena, zxid unset
	run func() // bound to fire
}

// fire recycles r, then proposes its request.
func (r *request) fire() {
	s, id, e := r.s, r.id, r.e
	r.e = entry{}
	s.reqFree = append(s.reqFree, r)
	s.propose(id, e)
}

type voteT struct {
	epoch uint32
	zxid  uint64
	id    int
}

func (v voteT) better(o voteT) bool {
	if v.epoch != o.epoch {
		return v.epoch > o.epoch
	}
	if v.zxid != o.zxid {
		return v.zxid > o.zxid
	}
	return v.id > o.id
}

// enc frames a message in the cluster's scratch buffer. The frame is only
// good until the next enc, which is all a send needs: Send and Broadcast copy
// it into the transport's own frame before they return.
func (c *Cluster) enc(kind byte, epoch uint32, zxid uint64, payload []byte) []byte {
	b := slices.Grow(c.scratch[:0], 13+len(payload))[:13+len(payload)]
	c.scratch = b
	b[0] = kind
	binary.LittleEndian.PutUint32(b[1:], epoch)
	binary.LittleEndian.PutUint64(b[5:], zxid)
	copy(b[13:], payload)
	return b
}

func dec(m []byte) (kind byte, epoch uint32, zxid uint64, payload []byte) {
	return m[0], binary.LittleEndian.Uint32(m[1:]), binary.LittleEndian.Uint64(m[5:]), m[13:]
}

// Cluster is a ZooKeeper ensemble plus a client host. It implements
// abcast.DurableGroup. The embedded Recovery counts bytes read back from
// local transaction logs on restart (durable mode only) and payload bytes
// re-shipped over the network to refill restarted servers' pre-crash log
// positions.
type Cluster struct {
	*tcpnet.Ensemble
	disk.Recovery
	Sim      *simnet.Sim
	Servers  []*Server
	requests *abcast.Client
	sub      trace.Subscriber
	scratch  []byte // enc's frame buffer

	// OnDeliver observes every delivery (tests, KV store).
	OnDeliver func(replica int, zxid uint64, payload []byte)
}

// NewCluster builds an ensemble of n servers.
func NewCluster(sim *simnet.Sim, net *tcpnet.Net, n int) *Cluster {
	c := &Cluster{Sim: sim}
	c.requests = abcast.NewClient(sim, c.try, 20*time.Millisecond, time.Millisecond)
	c.Servers = make([]*Server, n)
	for i := range c.Servers {
		c.Servers[i] = &Server{
			c: c, id: i,
			leader:  -1,
			acks:    make(map[uint64]int),
			votes:   make(map[int]voteT),
			nlAcked: make(map[int]bool),
		}
	}
	c.Ensemble = tcpnet.NewEnsemble(net, "zk", n,
		func(i int) func([]byte) { return c.Servers[i].handle },
		func(i int) func([]byte) { return c.Servers[i].clientRequest },
		c.requests.Ack)
	for i, s := range c.Servers {
		s.node = c.Node(i)
		s.txnLog = disk.NewGroupCommit(s.flush)
		s.released = s.onLogged
		s.ping, s.checkPing = s.schedulePing, s.checkLeader
	}
	return c
}

// Subscribe attaches s to the protocol facts the servers emit (nil
// detaches): log appends, truncations, commits and deliveries; in volatile
// mode zab's committed prefix survives restarts in memory, so no Restart is
// stated, while durable mode states the recovery and the durable frontier as
// commit metadata syncs. A won election is a Claim, not a Win: fast leader
// election can produce same-epoch dual winners that the recovery phase
// (quorum of NEWLEADER acks) resolves, so a becomeLeader transition alone
// proves nothing. Call before Start.
func (c *Cluster) Subscribe(s trace.Subscriber) { c.sub = s }

// emit states one protocol fact at this server.
func (s *Server) emit(k trace.FactKind, term, index uint64, id int64) {
	trace.Emit(s.c.Sim.Tracer(), s.c.sub, &trace.Fact{Kind: k, Replica: s.id, Node: s.id,
		At: int64(s.c.Sim.Now()), Term: term, Index: index, ID: id})
}

// zabWALName is the per-server transaction-log device file.
const zabWALName = "zab.wal"

// Metadata keys persisted alongside transactions. The epoch rides the next
// group commit (FLE tolerates a stale epoch: a rejoiner's probe vote is
// answered with a targeted sync round); the committed frontier is a
// recovery hint — stale merely means a longer replay.
const (
	metaEpoch     = uint8(1)
	metaCommitted = uint8(2)
)

// SetDisks attaches one simulated disk per server and switches the ensemble
// to durable mode: the fsync-cost model of persist() becomes a real
// checksummed transaction log, the epoch and committed frontier are
// persisted, and Restart recovers from the device instead of trusting
// memory. Call before Start with exactly N devices.
func (c *Cluster) SetDisks(devs []*disk.Device) {
	for i, s := range c.Servers {
		s.dev = devs[i]
		s.store = disk.NewLogStore(devs[i], zabWALName)
		s.store.OnFrontier = s.reportDurable
	}
}

// Start boots every server into election.
func (c *Cluster) Start() {
	for _, s := range c.Servers {
		s.startElection()
	}
}

func (s *Server) alive() bool { return !s.node.Crashed() }

// --- broadcast mode ---

func (s *Server) clientRequest(payload []byte) {
	if s.role != leading || !s.active || len(payload) < 8 {
		return // dropped; client retries
	}
	id := abcast.MsgID(payload)
	switch s.sessions.Admit(id) {
	case abcast.Reack:
		// Retry of an already-applied request whose ack died with an old
		// leader: re-ack, never re-propose under a fresh zxid.
		s.c.Ack(s.id, payload)
		return
	case abcast.Drop:
		return // already in flight under some zxid
	}
	// payload aliases the connection's frame buffer, which the transport
	// recycles when this handler returns: carve the log entry's copy from the
	// arena now, and the deferred proposal owns its bytes.
	var r *request
	if n := len(s.reqFree); n > 0 {
		r = s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
	} else {
		r = &request{s: s}
		r.run = r.fire
	}
	r.id = id
	r.e.payload, r.e.chunk = s.arena.Own(payload)
	s.node.Proc.Run(leaderOpCost, r.run)
}

// propose orders request id once the leader's CPU has processed it. e holds
// the request's payload and its claim on the arena, which the log entry takes
// over, or which is given back if the request is dropped here.
func (s *Server) propose(id uint64, e entry) {
	if s.role != leading || !s.active || s.sessions.Admit(id) != abcast.Propose {
		s.arena.Release(e.chunk)
		return
	}
	s.sessions.Pend(id)
	s.counter++
	e.zxid = uint64(s.epoch)<<32 | uint64(s.counter)
	s.lastZxid = e.zxid
	s.log.Append(e)
	s.acks[e.zxid] = 0
	s.c.Broadcast(s.id, s.c.enc(mPropose, s.epoch, e.zxid, e.payload))
	s.emit(trace.Append, e.zxid, uint64(s.log.Len()-1), trace.ID(e.payload))
	// The leader counts its own ack after its own group commit.
	s.afterLog(ownAck, e.zxid)
}

// logReceived logs a received entry, carving its copy of payload (a view of
// the transport's frame) from the arena.
func (s *Server) logReceived(zxid uint64, payload []byte) entry {
	e := entry{zxid: zxid}
	e.payload, e.chunk = s.arena.Own(payload)
	s.log.Append(e)
	return e
}

// truncate drops the log's entries from n on, and their claims on the arena.
func (s *Server) truncate(n int) {
	for i := n; i < s.log.Len(); i++ {
		s.arena.Release(s.log.At(i).chunk)
	}
	s.log.Truncate(n)
}

// trim forgets, in volatile mode, the log below f-1 once that is trimEvery
// entries above the head, where f is the smallest committed count over the
// whole ensemble, live or down servers alike. Every read of the log stays at
// or above f-1: a DIFF starts above the follower's own committed prefix, and
// the late joiner's COMMIT and a new follower's tail zxid read entry
// committed-1. A down volatile server keeps its memory, so it pins f where it
// stopped until it rejoins. The frontier is host bookkeeping, read from the
// servers directly rather than from any message, so trimming changes no
// simulated time, event or byte. A server with a store keeps its whole log: a
// durable or amnesia restart replays from the device, and the DIFF that
// refills what the device lost is cut from a peer's log below any frontier
// memory states.
func (s *Server) trim() {
	if s.store != nil {
		return
	}
	f := s.committed
	for _, o := range s.c.Servers {
		f = min(f, o.committed)
	}
	if f-1 < s.log.Head()+trimEvery {
		return
	}
	for i := s.log.Head(); i < f-1; i++ {
		s.arena.Release(s.log.At(i).chunk)
	}
	s.log.TrimBelow(f - 1)
}

// trimEvery is how far the frontier moves between two trims: a trim's fixed
// cost is then paid once per trimEvery commits rather than at every commit
// of every server, for up to trimEvery entries more in each log.
const trimEvery = 64

// afterLog queues a waiter of kind for the next transaction-log group commit.
func (s *Server) afterLog(kind waitKind, zxid uint64) {
	if s.loggedHead > 0 && 2*s.loggedHead >= len(s.logged) {
		// A busy log always has the next batch queued behind the one being
		// released, so the FIFO never drains: slide the live tail down once
		// at least half of it is spent, as disk.Device.Sync does.
		n := copy(s.logged, s.logged[s.loggedHead:])
		s.logged, s.loggedHead = s.logged[:n], 0
	}
	s.logged = append(s.logged, waiter{kind, zxid})
	s.txnLog.Enqueue(s.released)
}

// onLogged releases the oldest waiter. It reads the leader and epoch now, when
// the commit has landed, not when the waiter queued.
func (s *Server) onLogged() {
	w := s.logged[s.loggedHead]
	s.loggedHead++
	switch w.kind {
	case ownAck:
		s.onAck(w.zxid)
	case followerAck:
		s.c.Send(s.id, s.leader, s.c.enc(mAck, s.epoch, w.zxid, nil))
	case newLeaderAck:
		var idb [4]byte
		binary.LittleEndian.PutUint32(idb[:], uint32(s.id))
		s.c.Send(s.id, s.leader, s.c.enc(mNewLeaderAck, s.epoch, 0, idb[:]))
	}
}

// flush is one transaction-log group commit: proposals queue on txnLog while
// one sync is in flight and are acknowledged together when it completes.
func (s *Server) flush(done func()) {
	if s.store == nil {
		s.node.Proc.Run(fsyncCost, done)
		return
	}
	// Durable mode: write the not-yet-logged suffix (proposals and adopted
	// DIFF entries alike land in s.log before they reach txnLog) and
	// group-commit it on the device.
	for i := s.walLen; i < s.log.Len(); i++ {
		e := s.log.At(i)
		s.store.AppendEntry(uint64(i), e.zxid, e.payload, nil)
	}
	s.walLen = s.log.Len()
	s.store.Flush(done)
}

// persistCommitted records the committed frontier in the background and
// reports the durable commit frontier to the observer once the fsync lands.
func (s *Server) persistCommitted() {
	if s.store == nil {
		return
	}
	n := uint64(s.committed)
	s.store.SetMeta(metaCommitted, n, nil)
	s.store.FlushFrontier(n)
}

// reportDurable, the hook on every store the server opens, states that the
// first n transactions are durably committed.
func (s *Server) reportDurable(n uint64) { s.emit(trace.Durable, 0, n, 0) }

// persistEpoch records the current epoch; it rides the next group commit.
func (s *Server) persistEpoch() {
	if s.store != nil {
		s.store.SetMeta(metaEpoch, uint64(s.epoch), nil)
	}
}

func (s *Server) handle(m []byte) {
	kind, epoch, zxid, payload := dec(m)
	switch kind {
	case mPropose:
		// An unsynced follower must not append: a proposal landing before
		// its DIFF would leave a zxid gap the DIFF can no longer fill. The
		// leader's DIFF (computed later) includes the proposal instead.
		if s.role != following || epoch != s.epoch || !s.synced {
			return
		}
		s.node.Proc.Charge(followerOpCost)
		e := s.logReceived(zxid, payload)
		// Track the log tail like every other append path. Without this,
		// two things break: election votes report a stale position, and a
		// straggler DIFF from an overlapping sync round (each probe vote
		// triggers one) can re-append an entry this proposal already
		// delivered — the DIFF's zxid > lastZxid dedup check is only sound
		// while lastZxid tracks the tail.
		s.lastZxid = zxid
		if s.log.Len()-1 < s.preCrashLen {
			s.c.Refetched(len(e.payload))
		}
		s.emit(trace.Replicate, zxid, uint64(s.log.Len()-1), trace.ID(e.payload))
		s.afterLog(followerAck, zxid)
	case mAck:
		if s.role != leading || epoch != s.epoch {
			return
		}
		s.onAck(zxid)
	case mCommit:
		if s.role != following || epoch != s.epoch {
			return
		}
		s.deliverUpTo(zxid)
	case mVote:
		s.onVote(epoch, zxid,
			int(binary.LittleEndian.Uint32(payload)),
			int(binary.LittleEndian.Uint32(payload[4:])))
	case mNewLeader:
		s.onNewLeader(epoch, payload)
	case mFollowerInfo:
		if s.role != leading || epoch != s.epoch {
			return
		}
		s.sendDiff(int(binary.LittleEndian.Uint32(payload)), zxid)
	case mSyncDiff:
		s.onSyncDiff(epoch, payload)
	case mNewLeaderAck:
		if s.role != leading || epoch != s.epoch {
			return
		}
		from := int(binary.LittleEndian.Uint32(payload))
		if s.active {
			// A late joiner finished syncing after activation: tell it the
			// committed boundary so it delivers without waiting for traffic.
			if s.committed > 0 {
				s.c.Send(s.id, from, s.c.enc(mCommit, s.epoch, s.log.At(s.committed-1).zxid, nil))
			}
			return
		}
		s.nlAcked[from] = true
		if len(s.nlAcked)+1 >= s.c.Quorum() {
			s.activate()
		}
	case mPing:
		if s.role == following && epoch == s.epoch {
			s.lastPing = s.c.Sim.Now()
		}
	}
}

func (s *Server) onAck(zxid uint64) {
	n, ok := s.acks[zxid]
	if !ok {
		return
	}
	n++
	s.acks[zxid] = n
	if n >= s.c.Quorum() {
		delete(s.acks, zxid)
		s.c.Broadcast(s.id, s.c.enc(mCommit, s.epoch, zxid, nil))
		s.deliverUpTo(zxid)
	}
}

func (s *Server) deliverUpTo(zxid uint64) {
	before := s.committed
	for s.committed < s.log.Len() {
		e := s.log.At(s.committed)
		if e.zxid > zxid {
			break
		}
		s.committed++
		s.emit(trace.Advance, 0, uint64(s.committed), 0)
		s.emit(trace.Deliver.Acked(s.role == leading), 0, uint64(s.committed-1), trace.ID(e.payload))
		s.sessions.Deliver(abcast.MsgID(e.payload))
		if s.c.OnDeliver != nil {
			s.c.OnDeliver(s.id, e.zxid, e.payload)
		}
		if s.role == leading {
			s.c.Ack(s.id, e.payload)
		}
	}
	if s.committed > before {
		s.persistCommitted()
		s.trim()
	}
}

// --- election (leader heartbeats, fast-leader-election flavored voting,
// and the post-election sync + verification exchange) ---

func (s *Server) startElection() {
	s.role = looking
	s.active = false
	s.synced = false
	s.leader = -1
	s.epoch++
	s.persistEpoch()
	s.votes = map[int]voteT{s.id: {s.epoch, s.lastZxid, s.id}}
	s.emit(trace.Suspect, uint64(s.epoch), 0, 0)
	s.sendVote()
	s.armElectTimer()
}

func (s *Server) sendVote() {
	v := s.votes[s.id]
	idb := make([]byte, 8)
	binary.LittleEndian.PutUint32(idb, uint32(v.id))
	binary.LittleEndian.PutUint32(idb[4:], uint32(s.id))
	s.c.Broadcast(s.id, s.c.enc(mVote, v.epoch, v.zxid, idb))
}

// onVote processes sender's vote for candidate (with the candidate's last
// zxid). The votes map is keyed by sender.
func (s *Server) onVote(epoch uint32, zxid uint64, candidate, sender int) {
	if s.role == leading {
		// An established leader answers stray votes — a restarted or
		// long-partitioned peer probing for the cluster, possibly with an
		// inflated epoch from retried solo elections — with a targeted sync
		// round instead of letting the vote depose a healthy quorum.
		s.syncFollower(sender)
		return
	}
	if s.role == following {
		// A healthy follower ignores votes; it joins an election only when
		// its own ping-staleness check fires. The looking sender will be
		// adopted by the leader directly.
		return
	}
	if epoch > s.epoch {
		s.epoch = epoch
		s.persistEpoch()
		s.votes = map[int]voteT{}
	}
	v := voteT{epoch, zxid, candidate}
	s.votes[sender] = v
	mine, ok := s.votes[s.id]
	if !ok {
		mine = voteT{s.epoch, s.lastZxid, s.id}
		s.votes[s.id] = mine
	}
	if v.better(mine) {
		// Adopt the better candidate.
		s.votes[s.id] = v
		s.sendVote()
	}
	// Count senders agreeing on my current vote's candidate.
	cur := s.votes[s.id]
	n := 0
	for _, o := range s.votes {
		if o.epoch == cur.epoch && o.id == cur.id && o.zxid == cur.zxid {
			n++
		}
	}
	if n >= s.c.Quorum() && cur.id == s.id {
		s.becomeLeader()
	}
}

func (s *Server) becomeLeader() {
	s.role = leading
	s.leader = s.id
	s.active = false
	s.synced = true
	s.emit(trace.Claim, uint64(s.epoch), 0, 0)
	s.nlAcked = make(map[int]bool)
	s.acks = make(map[uint64]int)
	s.counter = 0
	s.sessions.Reseed()
	for i := s.committed; i < s.log.Len(); i++ {
		s.sessions.Pend(abcast.MsgID(s.log.At(i).payload))
	}
	// Recovery phase: announce leadership, then sync each follower with a
	// per-follower DIFF once it reports its last zxid — the extra
	// verification exchange the paper contrasts with Acuerdo's election.
	var idb [4]byte
	binary.LittleEndian.PutUint32(idb[:], uint32(s.id))
	s.c.Broadcast(s.id, s.c.enc(mNewLeader, s.epoch, s.lastZxid, idb[:]))
	s.schedulePing()
}

// syncFollower runs a targeted announce-and-sync round with one peer (a
// rejoiner probing via votes, or a straggler missing the election round).
func (s *Server) syncFollower(j int) {
	if j == s.id {
		return
	}
	var idb [4]byte
	binary.LittleEndian.PutUint32(idb[:], uint32(s.id))
	s.c.Send(s.id, j, s.c.enc(mNewLeader, s.epoch, s.lastZxid, idb[:]))
}

func (s *Server) onNewLeader(epoch uint32, payload []byte) {
	// A looking node accepts any announce, even with a smaller epoch: a
	// rejoiner that inflated its epoch through retried solo elections must
	// still be able to adopt the established leader (whose epoch reflects
	// the last election that actually won a quorum).
	if epoch < s.epoch && s.role != looking {
		return
	}
	ldr := int(binary.LittleEndian.Uint32(payload))
	if ldr == s.id {
		return
	}
	s.epoch = epoch
	s.persistEpoch()
	s.role = following
	s.active = false
	s.synced = false
	s.leader = ldr
	// Drop the uncommitted tail; the leader's DIFF replaces it.
	s.truncate(s.committed)
	s.emit(trace.Truncate, 0, uint64(s.committed), 0)
	if s.store != nil && s.walLen > s.committed {
		s.store.Truncate(uint64(s.committed), nil)
		s.walLen = s.committed
	}
	if s.log.Len() > 0 {
		s.lastZxid = s.log.At(s.log.Len() - 1).zxid
	} else {
		s.lastZxid = 0
	}
	s.lastPing = s.c.Sim.Now()
	var idb [4]byte
	binary.LittleEndian.PutUint32(idb[:], uint32(s.id))
	s.c.Send(s.id, ldr, s.c.enc(mFollowerInfo, s.epoch, s.lastZxid, idb[:]))
	s.armFollowTimer()
}

// sendDiff ships every log entry after the follower's reported zxid. The
// DIFF is computed when the FollowerInfo arrives, so it also contains any
// proposals broadcast while the follower was still unsynced (which the
// follower dropped); everything later arrives in FIFO order behind it. Each
// record is the entry's zxid, its payload's length and the payload. The
// follower reported a zxid at or above its own committed prefix, so nothing
// below the head, which trails every server's, belongs in its DIFF.
func (s *Server) sendDiff(j int, after uint64) {
	var diff []byte
	for i := s.log.Head(); i < s.log.Len(); i++ {
		e := s.log.At(i)
		if e.zxid <= after {
			continue
		}
		diff = binary.LittleEndian.AppendUint64(diff, e.zxid)
		diff = binary.LittleEndian.AppendUint32(diff, uint32(len(e.payload)))
		diff = append(diff, e.payload...)
	}
	s.c.Send(s.id, j, s.c.enc(mSyncDiff, s.epoch, s.lastZxid, diff))
}

func (s *Server) onSyncDiff(epoch uint32, payload []byte) {
	if s.role != following || epoch != s.epoch {
		return
	}
	for off := 0; off+12 <= len(payload); {
		zxid := binary.LittleEndian.Uint64(payload[off:])
		ln := int(binary.LittleEndian.Uint32(payload[off+8:]))
		if zxid > s.lastZxid {
			e := s.logReceived(zxid, payload[off+12:off+12+ln])
			s.emit(trace.Adopt, zxid, uint64(s.log.Len()-1), trace.ID(e.payload))
			if s.log.Len()-1 < s.preCrashLen {
				s.c.Refetched(len(e.payload))
			}
			s.lastZxid = zxid
		}
		off += 12 + ln
	}
	s.synced = true
	// Ack only after the adopted history hits the transaction log: the
	// leader commits its inherited suffix on a quorum of these acks, so an
	// ack before persistence would let a commit outrun durable storage.
	s.afterLog(newLeaderAck, 0)
}

// activate completes the verification round: a quorum has persisted the
// leader's history, so the entire inherited log is committed (Zab's
// NEWLEADER commit) and the leader may serve clients. Without this, a
// suffix inherited from a dead leader would sit uncommitted forever.
func (s *Server) activate() {
	s.active = true
	if s.log.Len() > s.committed {
		s.c.Broadcast(s.id, s.c.enc(mCommit, s.epoch, s.lastZxid, nil))
		s.deliverUpTo(s.lastZxid)
	}
}

func (s *Server) schedulePing() {
	if s.role != leading || !s.alive() {
		return
	}
	s.c.Broadcast(s.id, s.c.enc(mPing, s.epoch, 0, nil))
	s.c.Sim.After(heartbeatInterval, s.ping)
}

func (s *Server) armFollowTimer() { s.c.Sim.After(electTimeout, s.checkPing) }

// checkLeader is the follower timer: a leader silent for ElectTimeout starts
// an election.
func (s *Server) checkLeader() {
	if s.role != following || !s.alive() {
		return
	}
	if s.c.Sim.Now().Sub(s.lastPing) >= electTimeout {
		s.startElection()
		return
	}
	s.armFollowTimer()
}

func (s *Server) armElectTimer() {
	s.c.Sim.After(electTimeout, func() {
		if s.role == looking && s.alive() {
			// Election stalled (e.g., votes lost to a crash); retry.
			s.startElection()
		}
	})
}

// --- fault injection (chaos engine surface) ---

// SetDeliver implements abcast.Group over the typed OnDeliver hook.
func (c *Cluster) SetDeliver(fn func(replica int, payload []byte)) {
	c.OnDeliver = func(replica int, _ uint64, payload []byte) { fn(replica, payload) }
}

// Crash fail-stops replica i: its queued work and timers die, in-flight
// messages to it are dropped, and peers see silence. In durable mode the
// device's volatile write cache is dropped too (only fsynced bytes survive,
// modulo an armed torn write).
func (c *Cluster) Crash(i int) {
	s := c.Servers[i]
	s.preCrashLen = s.log.Len()
	s.node.Crash()
	s.dev.Crash(c.Sim.Rand())
}

// Restart recovers a crashed replica; DESIGN §6.8 tabulates what survives in
// each storage mode. The replica rejoins by probing with votes — an
// established leader answers with a targeted sync round instead of a full
// re-election — and in durable mode refetches its lost tail from the
// leader's DIFF over the fabric.
func (c *Cluster) Restart(i int) {
	s := c.Servers[i]
	if !s.node.Crashed() {
		return
	}
	s.node.Recover()
	s.txnLog.Reset()
	s.logged, s.loggedHead = s.logged[:0], 0
	if s.store != nil {
		s.restartDurable()
		return
	}
	s.startElection()
}

// restartDurable rebuilds the replica from its device: recover the WAL
// prefix, restore metadata, replay the committed prefix to the application
// (which refills the client-request table), and rejoin via election.
func (s *Server) restartDurable() {
	// Unlike the volatile path (whose committed prefix survives in memory),
	// the durable path re-delivers from position zero: the restart re-arms
	// the observer's delivery and commit bases.
	s.emit(trace.Restart, 0, 0, 0)
	// Wipe every in-memory trace of the pre-crash incarnation.
	s.role = looking
	s.active = false
	s.synced = false
	s.leader = -1
	s.epoch = 0
	s.counter = 0
	s.lastZxid = 0
	// The pre-crash arena goes with the rest of the incarnation's memory,
	// whole: views handed to the application before the crash keep their
	// bytes, and the rejoin carves from a fresh arena.
	s.log.Truncate(0)
	s.arena = chunks.Arena{}
	s.committed = 0
	s.acks = make(map[uint64]int)
	s.nlAcked = make(map[int]bool)
	s.sessions = abcast.Sessions{} // refilled by the replay below
	s.votes = make(map[int]voteT)
	rec := s.c.Recovery.Reopen(s.dev, s.node.Proc, zabWALName)[0]
	s.store = rec.Store
	s.store.OnFrontier = s.reportDurable
	// The log copies the recovered payloads into the fresh arena; a record
	// that supersedes an entry gives the entry's claim back.
	for re := range rec.All() {
		e := entry{zxid: re.Term}
		e.payload, e.chunk = s.arena.Own(re.Data)
		if int(re.Seq) < s.log.Len() {
			s.arena.Release(s.log.At(int(re.Seq)).chunk)
		}
		s.log.Set(int(re.Seq), e)
	}
	for i := range s.log.Len() {
		e := s.log.At(i)
		s.emit(trace.Recover, e.zxid, uint64(i), trace.ID(e.payload))
		s.lastZxid = e.zxid
	}
	s.walLen = s.log.Len()
	s.epoch = uint32(rec.Meta[metaEpoch])
	committed := int(rec.Meta[metaCommitted])
	if committed > s.log.Len() {
		// The commit meta outran the surviving log prefix (torn tail): only
		// what is actually on disk can be replayed; the rest is refetched.
		committed = s.log.Len()
	}
	s.emit(trace.Recovered, uint64(committed), uint64(s.log.Len()), 0)
	// Replay the committed prefix to the application. Deliberately not
	// deliverUpTo: that path states Advance, which after Recovered (commit
	// frontier already at `committed`) would look like a regression.
	for s.committed < committed {
		e := s.log.At(s.committed)
		s.committed++
		s.emit(trace.Deliver, 0, uint64(s.committed-1), trace.ID(e.payload))
		s.sessions.Deliver(abcast.MsgID(e.payload))
		if s.c.OnDeliver != nil {
			s.c.OnDeliver(s.id, e.zxid, e.payload)
		}
	}
	s.startElection()
}

// --- cluster-level client API ---

// LeaderIdx returns the active leader index or -1.
func (c *Cluster) LeaderIdx() int {
	for i, s := range c.Servers {
		if s.role == leading && s.active && s.alive() {
			return i
		}
	}
	return -1
}

// Name implements abcast.System.
func (c *Cluster) Name() string { return "zookeeper" }

// Ready implements abcast.System.
func (c *Cluster) Ready() bool { return c.LeaderIdx() >= 0 }

// Submit implements abcast.System.
func (c *Cluster) Submit(payload []byte, done func()) { c.requests.Submit(payload, done) }

// try is the client's send step: one request to the current leader, or false
// while there is none.
func (c *Cluster) try(_ uint64, payload []byte) bool {
	ldr := c.LeaderIdx()
	if ldr >= 0 {
		c.Request(ldr, payload)
	}
	return ldr >= 0
}

var _ abcast.DurableGroup = (*Cluster)(nil)
