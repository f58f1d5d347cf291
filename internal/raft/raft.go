// Package raft implements the etcd baseline: the Raft consensus algorithm
// (Ongaro & Ousterhout, ATC 2014) over the simulated kernel-TCP transport
// with etcd-like costs — gRPC-ish per-op processing, write-ahead-log group
// commit before acknowledging, pipelined AppendEntries batches, heartbeat
// ticks, and randomized election timeouts (the scheme the paper notes can
// split votes, unlike Acuerdo's monotone election).
package raft

import (
	"encoding/binary"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/chunks"
	"acuerdo/internal/disk"
	"acuerdo/internal/simnet"
	"acuerdo/internal/tcpnet"
	"acuerdo/internal/trace"
)

// Calibrated etcd 3.4-era costs.
const (
	// heartbeatInterval is the leader's empty-AppendEntries tick.
	heartbeatInterval = 2 * time.Millisecond
	// electTimeoutMin/Max bound the randomized follower election timeout.
	electTimeoutMin = 10 * time.Millisecond
	electTimeoutMax = 20 * time.Millisecond
	// leaderOpCost is leader CPU per client proposal (gRPC + raft node).
	leaderOpCost = 100 * time.Microsecond
	// followerOpCost is follower CPU per appended entry.
	followerOpCost = 5 * time.Microsecond
	// fsyncCost is the WAL group-commit cost paid before acknowledging.
	fsyncCost = 200 * time.Microsecond
	// maxBatch bounds entries per AppendEntries message.
	maxBatch = 64
)

const (
	mVoteReq = byte(iota)
	mVoteResp
	mAppendReq
	mAppendResp
)

type entry struct {
	term    uint64
	payload []byte
}

type roleT int

const (
	follower roleT = iota
	candidate
	leader
)

// Server is one Raft replica.
type Server struct {
	c    *Cluster
	id   int
	node *tcpnet.Node

	role     roleT
	term     uint64
	votedFor int
	votes    int
	log      chunks.List[entry]
	commit   int // entries [0,commit) committed
	applied  int

	// Leader state.
	nextIndex []int
	inflight  []bool

	// Group-commit state.
	persisted int              // entries [0,persisted) are on stable storage
	fsync     disk.GroupCommit // WAL group commit, over flush

	// Durable mode (SetDisks): the WAL holding entries and term/vote/commit
	// metadata, and the count of log entries already appended to it.
	dev    *disk.Device
	store  *disk.LogStore
	walLen int
	// preCrashLen is the log length when this server last crashed; entries
	// re-replicated below it count as recovery bytes over the fabric.
	preCrashLen int

	// The client-request table: updated at apply, reseeded from the log
	// above the applied prefix when this server wins, consulted by propose.
	sessions abcast.Sessions

	timerGen  int
	lastHeard simnet.Time
}

// Cluster is a Raft group plus a client host; implements abcast.DurableGroup.
// The embedded Recovery counts bytes read back from local disks on restart
// (durable mode only) and payload bytes re-replicated over the network to
// refill restarted servers' pre-crash log positions.
type Cluster struct {
	*tcpnet.Ensemble
	disk.Recovery
	Sim      *simnet.Sim
	Servers  []*Server
	requests *abcast.Client

	// OnDeliver observes every applied entry at every replica.
	OnDeliver func(replica int, index int, payload []byte)

	sub trace.Subscriber
}

// Subscribe attaches s to the protocol facts the servers emit (nil
// detaches): log appends and truncations, commit advances, applies,
// elections and restarts (Restart states one on both paths: the commit index
// is volatile), and in durable mode recovery and durable frontiers. Call
// before Start.
func (c *Cluster) Subscribe(s trace.Subscriber) { c.sub = s }

// emit states one protocol fact at this server.
func (s *Server) emit(k trace.FactKind, term, index uint64, id int64) {
	trace.Emit(s.c.Sim.Tracer(), s.c.sub, &trace.Fact{Kind: k, Replica: s.id, Node: s.id,
		At: int64(s.c.Sim.Now()), Term: term, Index: index, ID: id})
}

// raftWALName is the per-server WAL device file.
const raftWALName = "raft.wal"

// Metadata keys persisted alongside log entries. Term and vote are synced
// before a vote reply leaves the server (Raft's durability requirement for
// election safety); the commit index is synced in the background and is
// only a recovery hint — a stale value merely re-replays more entries.
const (
	metaTerm   = uint8(1)
	metaVote   = uint8(2) // votedFor+1, so 0 encodes "none"
	metaCommit = uint8(3)
)

// SetDisks attaches one simulated disk per server and switches the cluster
// to durable mode: the fsync-cost model of persist() is replaced by a real
// checksummed WAL on the device, term/vote/commit metadata are persisted,
// and Restart recovers from the device instead of trusting memory. Call
// before Start with exactly N devices.
func (c *Cluster) SetDisks(devs []*disk.Device) {
	for i, s := range c.Servers {
		s.dev = devs[i]
		s.store = disk.NewLogStore(devs[i], raftWALName)
		s.store.OnFrontier = s.reportDurable
	}
}

// NewCluster builds a group of n servers.
func NewCluster(sim *simnet.Sim, net *tcpnet.Net, n int) *Cluster {
	c := &Cluster{Sim: sim}
	c.requests = abcast.NewClient(sim, c.try, 50*time.Millisecond, 2*time.Millisecond)
	c.Servers = make([]*Server, n)
	for i := range c.Servers {
		c.Servers[i] = &Server{
			c: c, id: i,
			votedFor:  -1,
			nextIndex: make([]int, n),
			inflight:  make([]bool, n),
		}
	}
	c.Ensemble = tcpnet.NewEnsemble(net, "etcd", n,
		func(i int) func([]byte) { return c.Servers[i].handle },
		func(i int) func([]byte) { return c.Servers[i].propose },
		c.requests.Ack)
	for i, s := range c.Servers {
		s.node = c.Node(i)
		s.fsync = disk.NewGroupCommit(s.flush)
	}
	return c
}

// Start boots every server as a follower with a randomized election timer.
func (c *Cluster) Start() {
	for _, s := range c.Servers {
		s.lastHeard = c.Sim.Now()
		s.armElectionTimer()
	}
}

func (s *Server) electTimeout() time.Duration {
	return electTimeoutMin + time.Duration(s.c.Sim.Rand().Int63n(int64(electTimeoutMax-electTimeoutMin)))
}

func (s *Server) armElectionTimer() {
	gen := s.timerGen
	d := s.electTimeout()
	s.c.Sim.After(d, func() {
		if s.timerGen != gen || s.node.Crashed() || s.role == leader {
			return
		}
		if s.c.Sim.Now().Sub(s.lastHeard) >= d {
			s.startElection()
		} else {
			s.armElectionTimer()
		}
	})
}

func (s *Server) resetTimer() {
	s.timerGen++
	s.armElectionTimer()
}

func (s *Server) lastLogTerm() uint64 {
	if s.log.Len() == 0 {
		return 0
	}
	return s.log.At(s.log.Len() - 1).term
}

// --- election ---

func (s *Server) startElection() {
	s.role = candidate
	s.term++
	s.votedFor = s.id
	s.votes = 1
	s.lastHeard = s.c.Sim.Now()
	s.resetTimer()
	s.emit(trace.Suspect, s.term, 0, 0)
	m := make([]byte, 29)
	m[0] = mVoteReq
	binary.LittleEndian.PutUint64(m[1:], s.term)
	binary.LittleEndian.PutUint32(m[9:], uint32(s.id))
	binary.LittleEndian.PutUint32(m[13:], uint32(s.log.Len()))
	binary.LittleEndian.PutUint64(m[17:], s.lastLogTerm())
	// The candidate's own term and self-vote must be durable before it
	// solicits votes (it is counting itself in the quorum).
	s.persistVoteState(func() { s.c.Broadcast(s.id, m) })
}

func (s *Server) maybeStepDown(term uint64) {
	if term > s.term {
		s.term = term
		s.role = follower
		s.votedFor = -1
		s.resetTimer()
		if s.store != nil {
			// Record the term bump; it rides the next group commit. The
			// sync-before-reply guarantee is enforced where replies leave.
			s.store.SetMeta(metaTerm, s.term, nil)
			s.store.SetMeta(metaVote, 0, nil)
		}
	}
}

func (s *Server) handle(m []byte) {
	switch m[0] {
	case mVoteReq:
		term := binary.LittleEndian.Uint64(m[1:])
		from := int(binary.LittleEndian.Uint32(m[9:]))
		lastIdx := int(binary.LittleEndian.Uint32(m[13:]))
		lastTerm := binary.LittleEndian.Uint64(m[17:])
		s.maybeStepDown(term)
		grant := false
		if term == s.term && (s.votedFor == -1 || s.votedFor == from) {
			upToDate := lastTerm > s.lastLogTerm() ||
				(lastTerm == s.lastLogTerm() && lastIdx >= s.log.Len())
			if upToDate {
				grant = true
				s.votedFor = from
				s.lastHeard = s.c.Sim.Now()
			}
		}
		resp := make([]byte, 14)
		resp[0] = mVoteResp
		binary.LittleEndian.PutUint64(resp[1:], s.term)
		binary.LittleEndian.PutUint32(resp[9:], uint32(s.id))
		if grant {
			resp[13] = 1
		}
		if grant {
			// The vote must be on stable storage before the reply leaves:
			// a granted-then-forgotten vote could elect two leaders in one
			// term after a restart.
			s.persistVoteState(func() { s.c.Send(s.id, from, resp) })
		} else {
			s.c.Send(s.id, from, resp)
		}
	case mVoteResp:
		term := binary.LittleEndian.Uint64(m[1:])
		s.maybeStepDown(term)
		if s.role != candidate || term != s.term || m[13] != 1 {
			return
		}
		s.votes++
		if s.votes >= s.c.Quorum() {
			s.becomeLeader()
		}
	case mAppendReq:
		s.onAppend(m)
	case mAppendResp:
		s.onAppendResp(m)
	}
}

func (s *Server) becomeLeader() {
	s.role = leader
	for j := range s.nextIndex {
		s.nextIndex[j] = s.log.Len()
		s.inflight[j] = false
	}
	s.emit(trace.Win, s.term, 0, int64(s.id))
	s.sessions.Reseed()
	for i := s.applied; i < s.log.Len(); i++ {
		s.sessions.Pend(abcast.MsgID(s.log.At(i).payload))
	}
	// Commit barrier (Raft §5.4.2): a leader only counts replicas for
	// entries of its own term, so append a no-op to drive commitment of
	// any entries inherited from dead leaders. No-ops carry no payload
	// and are invisible to the application.
	s.log.Append(entry{term: s.term})
	s.emit(trace.Append, s.term, uint64(s.log.Len()-1), 0)
	s.persist(s.log.Len(), func() { s.advanceCommit() })
	s.heartbeat()
}

func (s *Server) heartbeat() {
	if s.role != leader || s.node.Crashed() {
		return
	}
	for j := range s.inflight {
		if j != s.id && !s.inflight[j] {
			s.sendAppend(j)
		}
	}
	s.c.Sim.After(heartbeatInterval, s.heartbeat)
}

// --- log replication ---

// appendWire is [kind][term u64][leader u32][prevIdx u32][prevTerm u64]
// [commit u32][count u32]{[term u64][len u32][payload]}...
func (s *Server) sendAppend(j int) {
	prev := s.nextIndex[j]
	count := s.log.Len() - prev
	if count > maxBatch {
		count = maxBatch
	}
	// Only replicate persisted entries (etcd sends after WAL append).
	if prev+count > s.persisted {
		count = s.persisted - prev
		if count < 0 {
			count = 0
		}
	}
	var prevTerm uint64
	if prev > 0 {
		prevTerm = s.log.At(prev - 1).term
	}
	m := encodeAppend(s.term, s.id, prev, prevTerm, s.commit, &s.log, prev+count)
	s.inflight[j] = true
	s.c.Send(s.id, j, m)
}

// encodeAppend frames log entries [prev, end) after the header.
func encodeAppend(term uint64, ldr, prev int, prevTerm uint64, commit int, log *chunks.List[entry], end int) []byte {
	n := 33
	for i := prev; i < end; i++ {
		n += 12 + len(log.At(i).payload)
	}
	m := make([]byte, n)
	m[0] = mAppendReq
	binary.LittleEndian.PutUint64(m[1:], term)
	binary.LittleEndian.PutUint32(m[9:], uint32(ldr))
	binary.LittleEndian.PutUint32(m[13:], uint32(prev))
	binary.LittleEndian.PutUint64(m[17:], prevTerm)
	binary.LittleEndian.PutUint32(m[25:], uint32(commit))
	binary.LittleEndian.PutUint32(m[29:], uint32(end-prev))
	off := 33
	for i := prev; i < end; i++ {
		e := log.At(i)
		binary.LittleEndian.PutUint64(m[off:], e.term)
		binary.LittleEndian.PutUint32(m[off+8:], uint32(len(e.payload)))
		copy(m[off+12:], e.payload)
		off += 12 + len(e.payload)
	}
	return m
}

func (s *Server) onAppend(m []byte) {
	term := binary.LittleEndian.Uint64(m[1:])
	ldr := int(binary.LittleEndian.Uint32(m[9:]))
	prev := int(binary.LittleEndian.Uint32(m[13:]))
	prevTerm := binary.LittleEndian.Uint64(m[17:])
	commit := int(binary.LittleEndian.Uint32(m[25:]))
	count := int(binary.LittleEndian.Uint32(m[29:]))

	s.maybeStepDown(term)
	reply := func(success bool, match int) {
		resp := make([]byte, 18)
		resp[0] = mAppendResp
		binary.LittleEndian.PutUint64(resp[1:], s.term)
		binary.LittleEndian.PutUint32(resp[9:], uint32(s.id))
		if success {
			resp[13] = 1
		}
		binary.LittleEndian.PutUint32(resp[14:], uint32(match))
		s.c.Send(s.id, ldr, resp)
	}
	if term < s.term {
		reply(false, 0)
		return
	}
	s.role = follower
	s.lastHeard = s.c.Sim.Now()
	// Consistency check.
	if prev > s.log.Len() || (prev > 0 && s.log.At(prev-1).term != prevTerm) {
		reply(false, 0)
		return
	}
	entries := make([]entry, 0, count)
	off := 33
	for i := 0; i < count; i++ {
		et := binary.LittleEndian.Uint64(m[off:])
		ln := int(binary.LittleEndian.Uint32(m[off+8:]))
		pl := append([]byte(nil), m[off+12:off+12+ln]...)
		entries = append(entries, entry{term: et, payload: pl})
		off += 12 + ln
	}
	if count > 0 {
		s.node.Proc.Charge(time.Duration(count) * followerOpCost)
	}
	// Truncate conflicts, append new entries.
	for i, e := range entries {
		idx := prev + i
		appended := false
		if idx < s.log.Len() {
			if s.log.At(idx).term != e.term {
				s.log.Truncate(idx)
				s.emit(trace.Truncate, 0, uint64(idx), 0)
				if s.persisted > idx {
					s.persisted = idx
				}
				if s.store != nil && s.walLen > idx {
					s.store.Truncate(uint64(idx), nil)
					s.walLen = idx
				}
				s.log.Append(e)
				appended = true
			}
		} else {
			s.log.Append(e)
			appended = true
		}
		if appended {
			if idx < s.preCrashLen {
				s.c.Refetched(len(e.payload))
			}
			s.emit(trace.Replicate, e.term, uint64(idx), trace.ID(e.payload))
		}
	}
	match := prev + len(entries)
	advance := func() {
		if commit > s.commit {
			c := commit
			if c > s.log.Len() {
				c = s.log.Len()
			}
			s.commit = c
			s.emit(trace.Advance, 0, uint64(c), 0)
			s.persistCommit()
			s.apply()
		}
	}
	if match > s.persisted {
		// WAL group commit before acknowledging.
		s.persist(match, func() { advance(); reply(true, match) })
	} else {
		advance()
		reply(true, match)
	}
}

// persist models etcd's WAL: fsyncs batch while one is in flight.
func (s *Server) persist(upTo int, done func()) {
	if upTo <= s.persisted {
		done()
		return
	}
	s.fsync.Enqueue(func() {
		if s.persisted < upTo {
			s.persisted = upTo
		}
		done()
	})
}

// flush is one WAL group commit.
func (s *Server) flush(done func()) {
	if s.store == nil {
		s.node.Proc.Run(fsyncCost, done)
		return
	}
	// Durable mode: append the not-yet-walled suffix and group-commit it on
	// the device. Completion callbacks are dropped by a device crash exactly
	// like Proc.Run callbacks, so crash semantics match the volatile model.
	for i := s.walLen; i < s.log.Len(); i++ {
		e := s.log.At(i)
		s.store.AppendEntry(uint64(i), e.term, e.payload, nil)
	}
	s.walLen = s.log.Len()
	s.store.Flush(done)
}

// persistVoteState makes the current term and vote durable before done
// runs. In volatile mode it is immediate (the legacy model never persisted
// elections — restarts were treated as new nodes with their log prefix).
func (s *Server) persistVoteState(done func()) {
	if s.store == nil {
		done()
		return
	}
	s.store.SetMeta(metaTerm, s.term, nil)
	s.store.SetMeta(metaVote, uint64(int64(s.votedFor)+1), nil)
	s.store.Flush(done)
}

// persistCommit records the commit index in the background and reports the
// durable commit frontier to the observer once the fsync lands. The write
// rides the next group commit; entries at or below the frontier are always
// flushed first (commit only advances past persisted entries).
func (s *Server) persistCommit() {
	if s.store == nil {
		return
	}
	n := uint64(s.commit)
	s.store.SetMeta(metaCommit, n, nil)
	s.store.FlushFrontier(n)
}

// reportDurable, the hook on every store the server opens, states that the
// first n entries are durably committed.
func (s *Server) reportDurable(n uint64) { s.emit(trace.Durable, 0, n, 0) }

func (s *Server) onAppendResp(m []byte) {
	term := binary.LittleEndian.Uint64(m[1:])
	from := int(binary.LittleEndian.Uint32(m[9:]))
	success := m[13] == 1
	match := int(binary.LittleEndian.Uint32(m[14:]))
	s.maybeStepDown(term)
	if s.role != leader {
		return
	}
	s.inflight[from] = false
	if success {
		if match > s.nextIndex[from] {
			s.nextIndex[from] = match
		}
		s.advanceCommit()
	} else if s.nextIndex[from] > 0 {
		s.nextIndex[from]--
	}
	if s.nextIndex[from] < s.persisted {
		s.sendAppend(from)
	}
}

// advanceCommit commits the highest index replicated on a quorum (counting
// the leader's own persisted prefix), current-term entries only.
func (s *Server) advanceCommit() {
	for idx := s.log.Len(); idx > s.commit; idx-- {
		if s.log.At(idx-1).term != s.term {
			break
		}
		n := 0
		if s.persisted >= idx {
			n++
		}
		for j := range s.nextIndex {
			if j != s.id && s.nextIndex[j] >= idx {
				n++
			}
		}
		if n >= s.c.Quorum() {
			s.commit = idx
			s.emit(trace.Advance, 0, uint64(idx), 0)
			s.persistCommit()
			s.apply()
			break
		}
	}
}

func (s *Server) apply() {
	for s.applied < s.commit {
		e := s.log.At(s.applied)
		s.applied++
		// The election no-op barrier carries id 0: the observer checks it,
		// the tracer does not mark it, and the application never sees it.
		s.emit(trace.Deliver.Acked(s.role == leader), 0, uint64(s.applied-1), trace.ID(e.payload))
		if len(e.payload) < 8 {
			continue
		}
		s.sessions.Deliver(abcast.MsgID(e.payload))
		if s.c.OnDeliver != nil {
			s.c.OnDeliver(s.id, s.applied, e.payload)
		}
		if s.role == leader {
			s.c.Ack(s.id, e.payload)
		}
	}
}

// propose handles a client request at this server.
func (s *Server) propose(payload []byte) {
	if s.role != leader {
		return // client retries
	}
	id := abcast.MsgID(payload)
	switch s.sessions.Admit(id) {
	case abcast.Reack:
		// Already committed and applied; the original ack died with a
		// previous leader. Re-ack, don't re-append.
		s.c.Ack(s.id, payload)
		return
	case abcast.Drop:
		return // already in the log, still in flight
	}
	// Copy before deferring: payload aliases the connection's frame buffer,
	// which the transport recycles when this handler returns. The log entry
	// needed its own copy anyway; take it now so the closure owns its bytes.
	p := append([]byte(nil), payload...)
	s.node.Proc.Run(leaderOpCost, func() {
		if s.role != leader || s.sessions.Admit(id) != abcast.Propose {
			return
		}
		s.sessions.Pend(id)
		s.log.Append(entry{term: s.term, payload: p})
		s.emit(trace.Append, s.term, uint64(s.log.Len()-1), trace.ID(p))
		s.persist(s.log.Len(), func() {
			s.advanceCommit()
			for j := range s.inflight {
				if j != s.id && !s.inflight[j] && s.nextIndex[j] < s.persisted {
					s.sendAppend(j)
				}
			}
		})
	})
}

// --- fault injection ---

// SetDeliver implements abcast.Group over the typed OnDeliver hook.
func (c *Cluster) SetDeliver(fn func(replica int, payload []byte)) {
	c.OnDeliver = func(replica, _ int, payload []byte) { fn(replica, payload) }
}

// Crash kills replica i: its process stops, in-flight messages to it are
// dropped, and (durable mode) its disk loses the un-fsynced volatile tail.
func (c *Cluster) Crash(i int) {
	s := c.Servers[i]
	s.node.Crash()
	s.preCrashLen = s.log.Len()
	s.dev.Crash(c.Sim.Rand())
}

// Restart recovers a crashed replica as a follower; DESIGN §6.8 tabulates
// what survives in each storage mode. Anything never group-committed is
// re-fetched from the leader over the fabric via nextIndex backtracking.
func (c *Cluster) Restart(i int) {
	s := c.Servers[i]
	if !s.node.Crashed() {
		return
	}
	s.node.Recover()
	// State the restart first: the volatile commit index may legally rewind
	// across it, and the WAL-replay truncation below must not read as a
	// committed-prefix violation.
	s.emit(trace.Restart, 0, 0, 0)
	// Crash interrupts an in-flight fsync: its callbacks are gone.
	s.fsync.Reset()
	if s.store != nil {
		c.restartDurable(s)
		return
	}
	if s.persisted < s.applied {
		s.persisted = s.applied
	}
	s.log.Truncate(s.persisted)
	s.emit(trace.Truncate, 0, uint64(s.persisted), 0)
	if s.commit > s.persisted {
		s.commit = s.persisted
	}
	s.role = follower
	s.votes = 0
	s.lastHeard = c.Sim.Now()
	s.resetTimer()
}

// restartDurable rebuilds s entirely from its device: wipe memory, replay
// the WAL's durable prefix, restore term/vote/commit metadata, re-apply the
// committed prefix, and rejoin as a follower.
func (c *Cluster) restartDurable(s *Server) {
	s.log.Truncate(0)
	s.commit, s.applied, s.persisted, s.walLen = 0, 0, 0, 0
	s.term, s.votedFor, s.votes = 0, -1, 0
	s.sessions = abcast.Sessions{} // refilled by the re-apply below
	s.role = follower
	rec := c.Recovery.Reopen(s.dev, s.node.Proc, raftWALName)[0]
	s.store = rec.Store
	s.store.OnFrontier = s.reportDurable
	for idx, e := range rec.Positional() {
		s.log.Append(entry{term: e.Term, payload: e.Data})
		s.emit(trace.Recover, e.Term, uint64(idx), trace.ID(e.Data))
	}
	s.persisted = s.log.Len()
	s.walLen = s.log.Len()
	s.term = rec.Meta[metaTerm]
	s.votedFor = int(int64(rec.Meta[metaVote])) - 1
	commit := int(rec.Meta[metaCommit])
	if commit > s.log.Len() {
		// The commit metadata record survived a tail the entries did not;
		// trust only what the log can cover.
		commit = s.log.Len()
	}
	s.emit(trace.Recovered, uint64(commit), uint64(s.log.Len()), 0)
	s.commit = commit
	// Re-apply the recovered committed prefix (deliveries re-fire; the
	// abcast checker's replay window absorbs them).
	s.apply()
	s.lastHeard = c.Sim.Now()
	s.resetTimer()
}

// --- cluster client API ---

// LeaderIdx returns the current leader or -1.
func (c *Cluster) LeaderIdx() int {
	best, bestTerm := -1, uint64(0)
	for i, s := range c.Servers {
		if s.role == leader && !s.node.Crashed() && s.term >= bestTerm {
			best, bestTerm = i, s.term
		}
	}
	return best
}

// Name implements abcast.System.
func (c *Cluster) Name() string { return "etcd" }

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
