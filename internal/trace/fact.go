package trace

// FactKind names one protocol fact: a step of a broadcast protocol's safety
// or latency argument (propose, accept, commit, deliver, suspect, win, and
// the log and storage steps behind them). A protocol states each fact once,
// through Emit; every reader sees the same event. Two read it: the Tracer,
// which marks the message and election facts as proto.* events
// (Tracer.Mark), and the runtime invariant observer (internal/observe),
// which checks each kind against the invariants DESIGN §6.7 lists for it.
// Several systems share a kind when their safety arguments state the same
// fact; a kind with a system's shape in its name (DeliverHeader, Install, …)
// is the one fact a single system's argument adds.
type FactKind uint8

// The fact vocabulary. Term, Index and ID carry the operands each comment
// names; unused operands are zero. The tracer marks a message fact with
// A = ID, B = Index, and leaves unmarked one whose ID is 0 (a no-op entry such
// as raft's election barrier, seen by subscribers only); it marks an election
// fact with A = Term, B = 0.
const (
	_ FactKind = iota

	// Propose: a proposer posted message ID as entry Index. Marked
	// proto.propose.
	Propose
	// Accept: a replica accepted message ID at Index. Marked proto.accept.
	Accept
	// Append: a leader appended its own proposal ID to its log at Index,
	// in Term. Marked proto.propose.
	Append
	// Replicate: a follower stored the leader's entry (Index, Term, ID) in
	// its log. Marked proto.accept.
	Replicate
	// Adopt: a follower adopted the entry (Index, Term, ID) from a new
	// leader's history while it synchronized. Unmarked.
	Adopt
	// Assign: the leader bound replication slot Index to message ID.
	// Marked proto.propose.
	Assign
	// Vote: an acceptor accepted message ID for instance Index under
	// ballot Term. Marked proto.accept.
	Vote
	// Promise: an acceptor promised ballot Term. Unmarked.
	Promise
	// Learn: a learner learned that instance Index chose message ID.
	// Unmarked.
	Learn

	// Deliver: a replica delivered message ID at position Index. Marked
	// proto.deliver. Each Deliver kind is followed by its Commit kind (see
	// Acked).
	Deliver
	// Commit: a Deliver at the replica whose delivery acknowledges the
	// client. Marked proto.commit, then proto.deliver.
	Commit
	// DeliverSlot and CommitSlot: a Deliver (Commit) of slot Index, which
	// must carry the ID the slot was assigned.
	DeliverSlot
	CommitSlot
	// DeliverHeader and CommitHeader: a Deliver (Commit) of the entry whose
	// header is (epoch Term, count Index); headers order epoch first.
	DeliverHeader
	CommitHeader
	// DeliverView and CommitView: a Deliver (Commit) of message ID, the
	// Index-th message of sender Term's stream, in round-robin order within
	// the installed view.
	DeliverView
	CommitView

	// Advance: a replica's committed prefix grew to Index entries. Unmarked.
	Advance
	// Truncate: a replica cut its log to Index entries. Unmarked.
	Truncate

	// Suspect: a replica suspected its leader and started an election in
	// or after Term. Marked proto.elect_start.
	Suspect
	// Win: a replica won Term, which names ID as its leader (a term that
	// names nobody carries the winner itself). Marked proto.elect_win.
	Win
	// Claim: a replica took leadership of Term pending its quorum's
	// synchronization, so a second claimant is legal. Marked
	// proto.elect_win.
	Claim
	// Install: a replica installed view Term whose members are the set
	// bits of Index. Marked proto.elect_win.
	Install

	// Restart: a crashed replica restarted; the state its protocol may
	// legally rewind re-arms. Unmarked.
	Restart
	// Durable: the replica's disk acknowledged its first Index committed
	// entries as durable. Unmarked.
	Durable
	// DiskFault: a fault destroyed the replica's durable state (a wiped
	// device). Unmarked.
	DiskFault
	// Recover: crash recovery read the entry (Index, Term, ID) back from
	// disk. Unmarked.
	Recover
	// Recovered: crash recovery ended with Index log entries and a
	// committed frontier of Term entries. Unmarked.
	Recovered

	// SSTWrite: a replica wrote its own row, Row, of the SST whose monotone
	// cells Cells declares. Unmarked.
	SSTWrite
)

// Acked returns delivery kind k, or its Commit form when the delivering
// replica is the one whose delivery acknowledges the client.
func (k FactKind) Acked(acks bool) FactKind {
	if acks {
		return k + 1
	}
	return k
}

// Fact is one protocol fact; a subscriber receives it by value. Replica is
// the replica's index in its group, the address the invariants speak in;
// Node is its interconnect node id, the thread the tracer files it under
// (they differ on a shared fabric). At is the simulated time in nanoseconds.
type Fact struct {
	Kind    FactKind
	Replica int
	Node    int
	At      int64
	// Term is the term, epoch, ballot or view; Index the log position,
	// instance, slot or count; ID the message id (see ID).
	Term  uint64
	Index uint64
	ID    int64
	// Cells and Row are an SSTWrite's table and row, read only during the
	// call.
	Cells *Cells
	Row   []byte
}

// Cells declares the monotone cells of one SST: byte offsets, within a row,
// of little-endian u64 and u32 cells a replica's writes never decrease (the
// property that makes last-write-wins RDMA pushes safe). Table names it in
// witnesses.
type Cells struct {
	Table    string
	U64, U32 []int
}

// Subscriber reads a group's protocol facts. The invariant observer is one;
// a group holds at most one, and nil means none.
type Subscriber interface {
	Observe(f Fact)
}

// Emit states *f once: sub reads it, then t marks it, each only when present.
// It is the one call a protocol makes per fact. The subscriber goes first, so
// a violation it reports reaches the trace ahead of the fact's marker. f is
// read during the call only; the subscriber gets a copy, so a fact built on
// the caller's stack stays there.
func Emit(t *Tracer, sub Subscriber, f *Fact) {
	if sub != nil {
		sub.Observe(*f)
	}
	if t != nil {
		t.Mark(f)
	}
}

// Mark marks f in the trace: a message fact as its proto.* marker and
// counter (Propose, Accept, Commit, Deliver), an election fact as
// proto.elect_start or proto.elect_win. The other kinds, and a message fact
// with ID 0, leave no mark. Safe on a nil Tracer.
func (t *Tracer) Mark(f *Fact) {
	if t == nil {
		return
	}
	var k Kind
	var c Counter
	switch f.Kind {
	case Propose, Append, Assign:
		k, c = KPropose, CtrProposes
	case Accept, Replicate, Vote:
		k, c = KAccept, CtrAccepts
	case Commit, CommitSlot, CommitHeader, CommitView:
		if f.ID == 0 {
			return
		}
		t.emit(Event{TS: f.At, Kind: KCommit, Node: int32(f.Node), A: f.ID, B: int64(f.Index)})
		t.counters[CtrCommits]++
		k, c = KDeliver, CtrDelivers
	case Deliver, DeliverSlot, DeliverHeader, DeliverView:
		k, c = KDeliver, CtrDelivers
	case Suspect:
		t.emit(Event{TS: f.At, Kind: KElectStart, Node: int32(f.Node), A: int64(f.Term)})
		t.counters[CtrElections]++
		return
	case Win, Claim, Install:
		t.emit(Event{TS: f.At, Kind: KElectWin, Node: int32(f.Node), A: int64(f.Term)})
		return
	default:
		return
	}
	if f.ID == 0 {
		return
	}
	t.emit(Event{TS: f.At, Kind: k, Node: int32(f.Node), A: f.ID, B: int64(f.Index)})
	t.counters[c]++
}
