package acuerdo

import (
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/disk"
	"acuerdo/internal/rdma"
	"acuerdo/internal/ringbuf"
	"acuerdo/internal/simnet"
	"acuerdo/internal/sst"
	"acuerdo/internal/trace"
)

// Role is a node's role within its current epoch (Figure 1).
type Role int

// Roles.
const (
	Electing Role = iota
	Leader
	Follower
)

func (r Role) String() string {
	switch r {
	case Electing:
		return "ELECTING"
	case Leader:
		return "LEADER"
	case Follower:
		return "FOLLOWER"
	}
	return "?"
}

// Calibrated replica costs and timers.
const (
	// pollCost is the CPU cost of one event-loop poll.
	pollCost = 120 * time.Nanosecond
	// perMsgCost is the CPU cost of accepting one message.
	perMsgCost = 150 * time.Nanosecond
	// deliverCost is the CPU cost of delivering one message upward.
	deliverCost = 100 * time.Nanosecond
	// commitPushInterval is the off-critical-path cadence of Commit_SST
	// pushes; the push doubles as the leader heartbeat.
	commitPushInterval = 4 * time.Microsecond
	// leaderTimeout is the failure detector: a follower suspects the
	// leader when its Commit_SST row is stale this long.
	leaderTimeout = 4 * time.Millisecond
	// electionPeriod rate-limits election iterations ("On: Timeout or
	// Periodically", Figure 7): a node re-evaluates its vote at most this
	// often (the first iteration after suspicion runs immediately).
	electionPeriod = 100 * time.Microsecond
)

// Config holds the replica settings some caller varies: the Table 1
// election benchmark and the DESIGN §8 ablations in bench_test.go. The
// zero value is not valid; start from DefaultConfig.
type Config struct {
	// PollInterval is the event loop's period: the receiver-side batch
	// size is whatever accumulates between polls. The ack-batching
	// ablation coarsens it to 4 µs.
	PollInterval time.Duration
	// CandidateTimeout bounds how long a voter waits on a candidate that
	// is not winning before proposing itself. bench.ElectionBench sets
	// 2 ms (Table 1).
	CandidateTimeout time.Duration
	// RingBytes sizes each broadcast ring. The slot-reuse ablation
	// shrinks it to 16 KiB.
	RingBytes int

	// Ablation knobs (all false in the real protocol):

	// AckEveryMessage pushes the acceptance SST per message instead of
	// once per receiver-side batch (Zab-style explicit acks).
	AckEveryMessage bool
	// ReleaseOnCommit reuses ring slots only once a message is committed
	// at all nodes (Derecho-style) instead of on acceptance.
	ReleaseOnCommit bool
	// TwoWriteRing uses the two-writes-per-message ring format.
	TwoWriteRing bool
}

// DefaultConfig returns the configuration used by the paper-reproduction
// experiments.
func DefaultConfig() Config {
	return Config{
		PollInterval:     400 * time.Nanosecond,
		CandidateTimeout: 1 * time.Millisecond,
		RingBytes:        4 << 20,
	}
}

// Stats counts protocol events at one replica.
type Stats struct {
	Broadcasts uint64 // messages this node proposed as leader
	Accepted   uint64 // messages accepted
	Delivered  uint64 // messages delivered to the application
	Elections  uint64 // elections entered
	SSTPushes  uint64 // acceptance pushes (for the ack-batching ablation)
}

// relState is a leader's release bookkeeping for its ring toward one live
// peer. The peer receives every record of sent from position ptr's segment
// on, so the ring index of record p toward it is p + off; a re-admission
// diff, sent to the peer alone, waits at ring index diffIdx (0 once
// released) until the peer's row reaches its header diff.
type relState struct {
	ptr     int // first record of sent the peer has yet to pass
	off     uint64
	diff    MsgHdr
	diffIdx uint64
}

// peerView is what a replica knows of one peer's liveness: the heartbeat
// word last seen in the peer's commit row, when it was seen, and whether it
// has moved within leaderTimeout of now (watchPeers).
type peerView struct {
	hb   uint64
	at   simnet.Time
	live bool
}

// Replica is one Acuerdo process. All methods must run inside the
// simulation (replicas are driven by their poll loop).
type Replica struct {
	ID  PID
	N   int
	Cfg Config

	Sim  *simnet.Sim
	Node *rdma.Node

	role                      Role
	eCur, eNew                Epoch
	accepted, committed, next MsgHdr
	count                     uint32
	log                       Log

	out    *ringbuf.Sender
	in     []*ringbuf.Receiver // indexed by sender replica; nil for self
	fabIDs []int               // replica index -> fabric node ID

	acceptSST *sst.Table[MsgHdr]
	voteSST   *sst.Table[Vote]
	commitSST *sst.Table[CommitRow]

	hb             uint64 // commit-row pushes, below incShift
	inc            uint32 // restarts so far: the heartbeat word's top bits
	lastCommitPush simnet.Time
	ldrRow         CommitRow
	ldrRowAt       simnet.Time

	voteChangedAt simnet.Time
	lastMaxVote   Vote
	nextElection  simnet.Time
	votes         []Vote // electionStep's snapshot of voteSST, reused

	// Election instrumentation (Table 1): SuspectedAt is when this node
	// began its current election; WonAt is when it last finished sending
	// diffs and could begin broadcasting; ElectionTook is that win's
	// duration, recorded at the win — SuspectedAt is re-armed by every later
	// suspicion and restart, so WonAt-SuspectedAt is only meaningful then.
	SuspectedAt  simnet.Time
	WonAt        simnet.Time
	ElectionTook time.Duration

	// Release bookkeeping. Records broadcast to every live peer are
	// numbered from the first ever sent; sent[0] is record sentBase's
	// header, and rel[j] maps them onto live peer j's ring. pruneSent keeps
	// sent within twice the in-flight window.
	sent     []MsgHdr
	sentBase int
	rel      []relState

	// peers[j] is this replica's view of peer j's liveness; a leader writes
	// ring records and diffs only to live peers. A replica that restarted
	// (rejoining until its first election step) stands for election no
	// earlier than noStandUntil.
	peers        []peerView
	rejoining    bool
	noStandUntil simnet.Time

	// Durable mode (SetDisks): committed entries stream to a background WAL
	// in delivery order (walPos entries appended, flushes queued up to
	// walQueued), each encoded into walBuf, which the next one reuses;
	// recovering marks the window between a durable restart and the first
	// diff, whose payload bytes count as fabric recovery traffic in
	// recovery, the group's ledger.
	dev        *disk.Device
	store      *disk.LogStore
	walBuf     []byte
	walPos     uint64
	walQueued  uint64
	recovering bool
	recovery   *disk.Recovery

	// sessions is the client-request table: updated at delivery, reseeded
	// from the log above the committed header when this node wins, grown by
	// Broadcast, consulted by the cluster's request path.
	sessions abcast.Sessions

	sub trace.Subscriber

	Stats Stats

	// OnDeliver is invoked for every message delivered to the local
	// application, in total order. payload is the log's copy and is recycled
	// once the group has committed past it: a handler that keeps it beyond
	// its own return copies it first.
	OnDeliver func(hdr MsgHdr, payload []byte)
	// OnPoll, if set, runs at the start of every event-loop iteration
	// (the cluster uses it to drain client request rings).
	OnPoll func()
	// OnElected, if set, runs when this node wins an election, after the
	// diff transfer.
	OnElected func(e Epoch)
}

// Role returns the node's current role.
func (r *Replica) Role() Role { return r.role }

// Epoch returns the node's current epoch.
func (r *Replica) Epoch() Epoch { return r.eCur }

// Accepted returns the last accepted header.
func (r *Replica) Accepted() MsgHdr { return r.accepted }

// Committed returns the last committed header.
func (r *Replica) Committed() MsgHdr { return r.committed }

// IsLeader reports whether the node currently leads its epoch.
func (r *Replica) IsLeader() bool { return r.role == Leader }

// LogLen returns the number of log entries held (for the trim tests).
func (r *Replica) LogLen() int { return r.log.Len() }

func (r *Replica) majority() int { return r.N/2 + 1 }

// Start launches the replica's event loop. Nodes boot in election mode.
func (r *Replica) Start() {
	r.voteChangedAt = r.Sim.Now()
	r.ldrRowAt = r.Sim.Now()
	r.SuspectedAt = r.Sim.Now()
	for k := range r.peers {
		r.peers[k].at, r.peers[k].live = r.Sim.Now(), true
	}
	r.Node.Proc.PollLoop(r.Cfg.PollInterval, pollCost, r.poll)
}

// acuerdoWALName is the per-replica committed-entry log device file.
const acuerdoWALName = "acuerdo.wal"

// metaIncarnation is the WAL meta key of the replica's incarnation.
const metaIncarnation = 1

// reportDurable, the hook on every store the replica opens, states that the
// first n WAL entries are durable.
func (r *Replica) reportDurable(n uint64) { r.emit(trace.Durable, 0, n, 0) }

// emit states one protocol fact at this replica.
func (r *Replica) emit(k trace.FactKind, term, index uint64, id int64) {
	trace.Emit(r.Sim.Tracer(), r.sub, &trace.Fact{Kind: k, Replica: int(r.ID), Node: r.Node.ID,
		At: int64(r.Sim.Now()), Term: term, Index: index, ID: id})
}

// Crash fails the node (crash-stop). In durable mode the device's volatile
// write cache is dropped too (only fsynced bytes survive, modulo an armed
// torn write).
func (r *Replica) Crash() {
	r.Node.Crash()
	r.dev.Crash(r.Sim.Rand())
}

// Restart recovers a crashed node into election mode as its next
// incarnation; it rejoins the group when it receives a diff from its epoch
// or a newer one, which a live leader sends once it sees the incarnation
// rise (watchPeers). A node that is not crashed is left alone: its poll loop
// is still running (only a crash ends one, so Start here would arm a
// second), and a paused node rejoins by itself when it wakes. DESIGN §6.8
// tabulates what survives in each storage mode: everything in the volatile
// one (the paper's replicas are memory-resident; a restart models a process
// pause, not a machine loss), only the WAL's committed prefix in the durable
// one — everything newer is refetched through the re-admission diff.
//
// In both modes the node starts its incoming rings over in the new
// incarnation's generation (records dropped at its dead NIC left a gap the
// old rings would wait at forever), forfeits its own vote, and does not
// stand for election for one CandidateTimeout, so that the leader's diff
// finds it at an epoch it accepts.
func (r *Replica) Restart() {
	if !r.Node.Crashed() {
		return
	}
	r.Node.Recover()
	r.role = Electing
	r.inc++
	if r.store != nil {
		r.restartDurable()
	}
	for _, in := range r.in {
		if in != nil {
			in.Reset(r.inc)
		}
	}
	// Forfeit our own vote: a pre-crash winning vote still sits in the
	// local vote SST alongside the quorum that elected us, and counting
	// that stale quorum would let the replica "win" an election it no
	// longer runs — again, in a term it already led. With a zero own-row
	// the win check stays cold until the replica casts or joins a fresh
	// vote.
	r.voteSST.Set(Vote{})
	r.lastMaxVote = Vote{}
	r.rejoining = true
	r.Start()
}

// restartDurable rebuilds the replica from its device: recover the
// committed prefix from the WAL, re-deliver it to the application, and
// leave election to fetch the rest via the next diff.
func (r *Replica) restartDurable() {
	// The durable path re-delivers from position zero: the restart re-arms
	// the observer's delivery and committed-header bases.
	r.emit(trace.Restart, 0, 0, 0)
	// Wipe the protocol state the durable contract says is lost. The
	// heartbeat word deliberately survives: it is a liveness signal, not
	// protocol state, and keeping it monotone keeps the commit SST's
	// per-cell invariant meaningful across restarts. Its incarnation is
	// persisted in WAL meta too (below), the copy a replica whose memory
	// did not survive would read back.
	r.log.reset()
	r.sessions = abcast.Sessions{} // refilled by the replay below
	r.accepted, r.committed, r.next = MsgHdr{}, MsgHdr{}, MsgHdr{}
	r.eCur, r.eNew = Epoch{}, Epoch{}
	r.count = 0
	r.sent, r.sentBase = r.sent[:0], 0
	rec := r.recovery.Reopen(r.dev, r.Node.Proc, acuerdoWALName)[0]
	r.store = rec.Store
	r.store.OnFrontier = r.reportDurable
	if m := uint32(rec.Meta[metaIncarnation]); m >= r.inc {
		r.inc = m + 1
	}
	r.store.SetMeta(metaIncarnation, uint64(r.inc), nil)
	// WAL records are committed entries in delivery order; replay them to
	// the application and rebuild the log so the next diff splices cleanly.
	// The records stay views of the device: Insert copies each payload into
	// the log's arena.
	n := uint64(0)
	for re := range rec.All() {
		hdr, payload, _, _, isDiff, err := DecodeMessage(re.Data)
		if err != nil || isDiff {
			continue
		}
		r.log.Insert(Entry{Hdr: hdr, Payload: payload})
		r.accepted = hdr
		r.committed = hdr
		n++
	}
	r.walPos = n
	r.walQueued = n
	r.eCur = r.committed.E
	r.eNew = r.committed.E
	r.acceptSST.Set(r.accepted)
	r.emit(trace.Recovered, n, uint64(r.log.Len()), 0)
	for p, end := r.log.RangeClosed(MsgHdr{}, r.committed); p < end; p++ {
		e := r.log.At(p)
		r.emit(trace.DeliverHeader, e.Hdr.E.Term(), uint64(e.Hdr.Cnt), trace.ID(e.Payload))
		r.sessions.Deliver(abcast.MsgID(e.Payload))
		r.Stats.Delivered++
		if r.OnDeliver != nil {
			r.OnDeliver(e.Hdr, e.Payload)
		}
	}
	r.recovering = true
}

// poll is one event-loop iteration: drain rings (accept), advance commits,
// push the commit row/heartbeat, run the failure detector, and run the
// election when electing.
func (r *Replica) poll() {
	if r.OnPoll != nil {
		r.OnPoll()
	}
	r.drainRings()
	r.commitTask()
	r.pushCommitRow()
	r.failureDetector()
	if r.role == Electing {
		r.electionStep()
	}
	if r.role == Leader {
		r.releaseRings()
	}
}

// drainRings accepts whatever has accumulated in the incoming ring buffers
// (Figure 5). One acceptance SST push per batch acknowledges the entire
// batch: RDMA FIFO delivery means the latest header implies all earlier
// ones.
func (r *Replica) drainRings() {
	changed := false
	for i := range r.in {
		if i == int(r.ID) || r.in[i] == nil {
			continue
		}
		recs := r.in[i].Poll(0)
		for _, rec := range recs {
			hdr, payload, entries, diffFrom, isDiff, err := DecodeMessage(rec)
			if err != nil {
				continue // corrupt record; drop
			}
			r.Node.Proc.Charge(perMsgCost)
			if !isDiff {
				// Normal message acceptance (line 47).
				if hdr.E == r.eNew && hdr.E == r.eCur {
					r.log.Insert(Entry{Hdr: hdr, Payload: payload})
					r.accepted = hdr
					r.Stats.Accepted++
					r.emit(trace.Accept, hdr.E.Term(), uint64(hdr.Cnt), trace.ID(payload))
					changed = true
					if r.Cfg.AckEveryMessage {
						r.pushAccept()
						changed = false
					}
				}
			} else if r.eNew.Cmp(hdr.E) <= 0 {
				// Diff acceptance and transition into broadcast
				// (line 54).
				r.acceptDiff(hdr, diffFrom, entries)
				changed = true
			}
		}
	}
	if changed {
		r.pushAccept()
	}
}

// pushAccept publishes the last accepted header to the current leader only.
func (r *Replica) pushAccept() {
	r.acceptSST.Set(r.accepted)
	if ldr := r.eCur.Ldr; ldr != r.ID {
		r.acceptSST.PushMineTo(int(ldr))
		r.Stats.SSTPushes++
	}
}

// acceptDiff joins epoch hdr.E: synchronize the log with the new leader's
// (remove uncommitted entries from the diff's range onward, splice the
// diff's contents in), accept the diff, and move to the follower role
// (Figure 5 lines 54-66).
//
// An epoch's first diff has count zero. A re-admission diff (readmit) comes
// mid-epoch, under the header of the leader's last message: it is accepted
// the same way, and the commits it brings resume after this replica's own
// committed header, so nothing is delivered twice.
func (r *Replica) acceptDiff(hdr, diffFrom MsgHdr, entries []Entry) {
	r.eNew = hdr.E
	r.eCur = hdr.E
	if hdr.E.Ldr != r.ID {
		r.role = Follower
	}
	r.log.RemoveFrom(diffFrom)
	for _, e := range entries {
		r.log.Insert(e)
	}
	if r.recovering {
		// First diff after a durable restart: its payload is the state the
		// crash lost, re-shipped over the fabric.
		for _, e := range entries {
			r.recovery.Refetched(len(e.Payload))
		}
		r.recovering = false
	}
	r.accepted = hdr
	r.next = MsgHdr{E: r.eCur, Cnt: 0}
	if r.committed.E == r.eCur {
		r.next.Cnt = r.committed.Cnt + 1
	}
	// Fresh leader: restart the failure detector.
	r.ldrRow = CommitRow{}
	r.ldrRowAt = r.Sim.Now()
	r.lastMaxVote = Vote{}
	r.voteChangedAt = r.Sim.Now()
}

// Broadcast proposes payload as the epoch's next message (Figure 4). It
// returns false if this node is not the leader. The ring buffer pipelines
// the message to every follower without waiting for any acknowledgment.
// Broadcast does not consult the client-request table — the cluster's
// request path does, before it calls Broadcast — but records payload's id as
// pending there.
func (r *Replica) Broadcast(payload []byte) bool {
	if r.role != Leader {
		return false
	}
	r.count++
	hdr := MsgHdr{E: r.eNew, Cnt: r.count}
	// The record is message header ‖ payload (appendMessage's bytes), gathered
	// behind the ring header straight into each follower's wire frame.
	var mh [msgHdrSize]byte
	putMsgHdr(mh[:], hdr, kindNormal)
	r.Node.Proc.Charge(perMsgCost)
	for j := 0; j < r.N; j++ {
		if j == int(r.ID) || !r.peers[j].live {
			continue
		}
		if _, err := r.out.Send(r.fabIDs[j], mh[:], payload); err != nil {
			panic("acuerdo: broadcast ring send failed: " + err.Error())
		}
	}
	r.sent = append(r.sent, hdr)
	// Self-acceptance: the leader stores and accepts its own message
	// locally (broadcast includes itself).
	r.log.Insert(Entry{Hdr: hdr, Payload: payload})
	r.sessions.Pend(abcast.MsgID(payload))
	r.accepted = hdr
	r.acceptSST.Set(hdr)
	r.Stats.Broadcasts++
	r.Stats.Accepted++
	r.emit(trace.Propose, hdr.E.Term(), uint64(hdr.Cnt), trace.ID(payload))
	return true
}

// commitTask advances Next as far as the commit rule allows (Figure 6):
// leaders commit on a quorum of same-epoch acceptance rows; followers
// commit from the leader's pushed commit row.
func (r *Replica) commitTask() {
	for {
		ok := false
		switch r.role {
		case Leader:
			cnt := 0
			for k := 0; k < r.N; k++ {
				row := r.acceptSST.Get(k)
				if row.E == r.eCur && !row.Less(r.next) {
					cnt++
				}
			}
			ok = cnt >= r.majority()
		case Follower:
			row := r.commitSST.Get(int(r.eCur.Ldr)).Hdr
			ok = row.E == r.eCur && !row.Less(r.next)
		default:
			return
		}
		if !ok {
			return
		}
		if r.next.Cnt != 0 {
			// Normal message commit.
			m := r.log.Get(r.next)
			if m == nil {
				// The leader says Next is committed but the ring has
				// not delivered it here yet; wait (FIFO guarantees it
				// is coming).
				return
			}
			r.deliverEntry(*m)
			r.committed = r.next
		} else {
			// Diff commit: deliver every included message not yet
			// committed here, in order.
			for p, end := r.log.RangeOpen(r.committed, r.next); p < end; p++ {
				r.deliverEntry(*r.log.At(p))
			}
			// The diff itself is now committed; recording its header
			// (rather than the last included message's) lets the
			// pushed commit row carry the new epoch immediately, so
			// followers need not wait for the first post-election
			// message to learn the diff committed.
			r.committed = r.next
		}
		r.next.Cnt++
	}
}

func (r *Replica) deliverEntry(e Entry) {
	r.Node.Proc.Charge(deliverCost)
	// The leader's commit decision is what unblocks the client ack.
	r.emit(trace.DeliverHeader.Acked(r.role == Leader), e.Hdr.E.Term(), uint64(e.Hdr.Cnt), trace.ID(e.Payload))
	r.committed = e.Hdr
	r.sessions.Deliver(abcast.MsgID(e.Payload))
	r.Stats.Delivered++
	if r.OnDeliver != nil {
		r.OnDeliver(e.Hdr, e.Payload)
	}
	if r.store != nil {
		// Background durability: the append queues on the device and the
		// next commit-row push flushes it. Never on the commit critical
		// path — the client ack does not wait for the disk.
		r.walBuf = appendMessage(r.walBuf[:0], e.Hdr, e.Payload)
		r.store.AppendEntry(r.walPos, 0, r.walBuf, nil)
		r.walPos++
	}
}

// pushCommitRow periodically publishes Committed plus a heartbeat to every
// peer (Figure 6 lines 93-95). This is off the commit critical path for the
// leader and doubles as the liveness signal for the failure detector. The
// same cadence trims a volatile replica's log below the group's stability
// frontier and, in durable mode, group-commits the WAL tail.
func (r *Replica) pushCommitRow() {
	now := r.Sim.Now()
	if now.Sub(r.lastCommitPush) < commitPushInterval {
		return
	}
	r.lastCommitPush = now
	r.hb++
	r.commitSST.Set(CommitRow{Hdr: r.committed, HB: uint64(r.inc)<<incShift | r.hb})
	r.commitSST.PushMine()
	r.watchPeers(now)
	if r.store == nil {
		// Volatile: forget what the whole group has committed. It is host
		// bookkeeping, not protocol work — no simulated CPU, no trace event.
		// A replica with a store keeps its whole log: a down member's frozen
		// row states what it committed in memory, which is more than its WAL
		// will give back when it restarts (DESIGN §6.8).
		r.log.TrimBelow(r.stableFrontier())
	} else if r.walPos > r.walQueued {
		r.walQueued = r.walPos
		r.store.FlushFrontier(r.walPos)
	}
}

// watchPeers reads every peer's heartbeat word at the push cadence: a word
// that moved marks the peer live, one that stood still for leaderTimeout
// marks it down. Heartbeats still go to every peer, live or down, or two
// replicas that each marked the other down would never see each other move
// again. A peer whose incarnation rose has restarted: its incoming rings
// started over in that generation, so this replica's ring toward it does
// too. A leader re-admits a peer that restarted or came back from silence.
func (r *Replica) watchPeers(now simnet.Time) {
	for k := range r.peers {
		if k == int(r.ID) {
			continue
		}
		pv, row := &r.peers[k], r.commitSST.Get(k)
		if row.HB == pv.hb {
			if pv.live && now.Sub(pv.at) > leaderTimeout {
				pv.live = false
			}
			continue
		}
		restarted := row.Incarnation() > uint32(pv.hb>>incShift)
		back := !pv.live
		pv.hb, pv.at, pv.live = row.HB, now, true
		if restarted {
			r.out.ResetPeer(r.fabIDs[k], row.Incarnation())
		}
		if r.role == Leader && (restarted || back) {
			r.readmit(k, row.Hdr)
		}
	}
}

// readmit brings peer j back into this leader's epoch with a mid-epoch diff:
// every entry from j's committed header from through this leader's last
// accepted one, under that last header (E, count). A header (E, 0) would
// move a rejoiner still in epoch E back below what it had accepted and
// committed. j's acceptance row is forgotten first: it states what j's
// previous incarnation accepted, which a durable restart lost, so counting
// it could commit an entry on a quorum that no longer holds it. The row
// counts again once j, having accepted the diff, pushes it anew.
func (r *Replica) readmit(j int, from MsgHdr) {
	r.acceptSST.Forget(j)
	lo, hi := r.log.RangeClosed(from, r.accepted)
	idx, err := r.out.Send(r.fabIDs[j], EncodeDiff(r.accepted, from, &r.log, lo, hi))
	if err != nil {
		panic("acuerdo: re-admission diff send failed: " + err.Error())
	}
	end := r.sentBase + len(r.sent)
	r.rel[j] = relState{ptr: end, off: idx + 1 - uint64(end), diff: r.accepted, diffIdx: idx}
}

// failureDetector suspects the leader when its commit row goes stale, or
// when its incarnation rises: a leader that restarted inside leaderTimeout
// leads nothing any more, though its heartbeat moves again.
func (r *Replica) failureDetector() {
	if r.role != Follower || r.eCur.Ldr == r.ID {
		return
	}
	row := r.commitSST.Get(int(r.eCur.Ldr))
	now := r.Sim.Now()
	if row != r.ldrRow {
		if r.ldrRow != (CommitRow{}) && row.Incarnation() > r.ldrRow.Incarnation() {
			r.Suspect()
			return
		}
		r.ldrRow = row
		r.ldrRowAt = now
		return
	}
	if now.Sub(r.ldrRowAt) > leaderTimeout {
		r.Suspect()
	}
}

// Suspect abandons the current leader and falls to election. Benchmarks
// call it directly to start election timing without waiting for the
// detector (Table 1 excludes detection time).
func (r *Replica) Suspect() {
	if r.role == Electing {
		return
	}
	r.role = Electing
	r.SuspectedAt = r.Sim.Now()
	r.Stats.Elections++
	r.emit(trace.Suspect, r.eCur.Term(), 0, 0)
	r.lastMaxVote = Vote{}
	r.voteChangedAt = r.Sim.Now()
	r.nextElection = r.Sim.Now() // first iteration runs immediately
}

// electionStep runs one iteration of the fixed-point election (Figure 7).
// Votes only increase: a node votes for the largest vote it sees if that
// candidate's log dominates its own, otherwise (or on candidate timeout)
// for itself under a strictly larger epoch.
func (r *Replica) electionStep() {
	if r.Sim.Now() < r.nextElection {
		return
	}
	r.nextElection = r.Sim.Now().Add(electionPeriod)
	if r.rejoining {
		// The window opens at the first step, not at Restart: a durable
		// restart's recovery read may outlast it.
		r.rejoining = false
		r.noStandUntil = r.Sim.Now().Add(r.Cfg.CandidateTimeout)
	}
	r.votes = r.voteSST.Snapshot(r.votes)
	mx := Vote{}
	for _, v := range r.votes {
		if v.Cmp(mx) > 0 {
			mx = v
		}
	}
	now := r.Sim.Now()
	if mx != r.lastMaxVote {
		// The election is making progress; restart the candidate timer.
		r.lastMaxVote = mx
		r.voteChangedAt = now
	}
	my := r.votes[r.ID]
	iAmCandidate := !my.IsZero() && my.ENew.Ldr == r.ID && my == mx
	timedOut := !iAmCandidate && now.Sub(r.voteChangedAt) > r.Cfg.CandidateTimeout
	stand := mx.IsZero() || timedOut || mx.Acpt.Less(r.accepted)

	if stand && now >= r.noStandUntil {
		// Vote for self with a strictly larger epoch (line 100).
		r.eNew = NewBiggerEpoch(r.eNew, mx.ENew, r.ID)
		nv := Vote{ENew: r.eNew, Acpt: r.accepted}
		r.voteSST.Set(nv)
		r.voteSST.PushMine()
		r.voteChangedAt = now
		r.lastMaxVote = nv
	} else if mx.Cmp(my) > 0 && r.accepted.LessEq(mx.Acpt) {
		// Join the max vote (line 106). The vote records the
		// candidate's accepted header, not ours.
		r.eNew = mx.ENew
		r.voteSST.Set(Vote{ENew: mx.ENew, Acpt: mx.Acpt})
		r.voteSST.PushMine()
		r.voteChangedAt = now
	}

	// Win check (line 114): a majority of identical votes naming us.
	cur := r.voteSST.Get(int(r.ID))
	if cur.ENew.Ldr != r.ID || cur.IsZero() {
		return
	}
	n := 0
	for k := 0; k < r.N; k++ {
		if r.voteSST.Get(k) == cur {
			n++
		}
	}
	if n >= r.majority() {
		r.becomeLeader()
	}
}

// becomeLeader transitions into broadcast (Figure 7 lines 116-126): build a
// per-follower diff covering everything from that follower's last known
// committed message through our last accepted message, and send it as
// message zero of the new epoch. The election's up-to-date guarantee means
// no state needs to be pulled from anyone first.
func (r *Replica) becomeLeader() {
	r.role = Leader
	r.count = 0
	hdr := MsgHdr{E: r.eNew, Cnt: 0}
	p := r.sentBase + len(r.sent)
	for j := 0; j < r.N; j++ {
		if j == int(r.ID) || !r.peers[j].live {
			continue // a down peer is re-admitted when its heartbeat moves
		}
		from := r.commitSST.Get(j).Hdr
		lo, hi := r.log.RangeClosed(from, r.accepted)
		rec := EncodeDiff(hdr, from, &r.log, lo, hi)
		idx, err := r.out.Send(r.fabIDs[j], rec)
		if err != nil {
			panic("acuerdo: diff send failed: " + err.Error())
		}
		r.rel[j] = relState{ptr: p, off: idx - uint64(p)}
	}
	r.sent = append(r.sent, hdr)
	// The diff's commit delivers every entry this node holds above its
	// committed header: those are the requests pending here.
	r.sessions.Reseed()
	for p, end := r.log.RangeOpen(r.committed, MsgHdr{E: r.eNew}); p < end; p++ {
		r.sessions.Pend(abcast.MsgID(r.log.At(p).Payload))
	}
	// Self-transition: our log already matches the diff contents, so only
	// the epoch state changes.
	r.eCur = r.eNew
	r.accepted = hdr
	r.next = hdr
	r.acceptSST.Set(hdr)
	r.WonAt = r.Sim.Now()
	r.ElectionTook = r.WonAt.Sub(r.SuspectedAt)
	r.emit(trace.Win, r.eCur.Term(), 0, int64(r.eCur.Ldr))
	if r.OnElected != nil {
		r.OnElected(r.eCur)
	}
}

// stableFrontier returns the header every member is known to have committed:
// the minimum commit row over the whole group as this replica sees it, live
// members and down ones alike. A down volatile member keeps its memory, so its
// frozen row holds the frontier where it stopped until it rejoins. Rows only
// grow, and becomeLeader cuts every diff from one of them, so nothing below
// the frontier is ever asked of this replica again.
func (r *Replica) stableFrontier() MsgHdr {
	low := r.commitSST.Get(0).Hdr
	for k := 1; k < r.N; k++ {
		if row := r.commitSST.Get(k).Hdr; row.Less(low) {
			low = row
		}
	}
	return low
}

// releaseRings frees broadcast ring slots toward live peers. Acuerdo reuses
// a slot as soon as the receiver has *accepted* the message; the
// ReleaseOnCommit ablation only frees slots committed at all nodes
// (Derecho's policy, which couples the sender to the slowest node). A down
// peer's slots wait for its re-admission diff, whose release frees them all.
func (r *Replica) releaseRings() {
	if len(r.sent) == 0 {
		return
	}
	low := MsgHdr{}
	if r.Cfg.ReleaseOnCommit {
		low = r.stableFrontier()
	}
	for j := 0; j < r.N; j++ {
		if j == int(r.ID) || !r.peers[j].live {
			continue
		}
		upTo := low
		if !r.Cfg.ReleaseOnCommit {
			upTo = r.acceptSST.Get(j)
		}
		r.advanceRelease(j, upTo)
	}
	r.pruneSent()
}

func (r *Replica) advanceRelease(j int, upTo MsgHdr) {
	rs := &r.rel[j]
	idx := uint64(0)
	if rs.diffIdx != 0 && rs.diff.LessEq(upTo) {
		idx, rs.diffIdx = rs.diffIdx, 0
	}
	p := rs.ptr - r.sentBase
	for p < len(r.sent) && r.sent[p].LessEq(upTo) {
		p++
	}
	if q := r.sentBase + p; q > rs.ptr {
		rs.ptr = q
		idx = uint64(q-1) + rs.off
	}
	if idx != 0 {
		r.out.Release(r.fabIDs[j], idx)
	}
}

// pruneSent forgets the records every live peer has passed: once they are
// at least half of sent, the live tail moves down over them. A prune copies
// no more records than it frees, and sent stays within twice the in-flight
// window however many records pass through.
func (r *Replica) pruneSent() {
	min := r.sentBase + len(r.sent)
	for j := 0; j < r.N; j++ {
		if j != int(r.ID) && r.peers[j].live && r.rel[j].ptr < min {
			min = r.rel[j].ptr
		}
	}
	if dead := min - r.sentBase; dead >= len(r.sent)-dead {
		n := copy(r.sent, r.sent[dead:])
		r.sent, r.sentBase = r.sent[:n], min
	}
}
