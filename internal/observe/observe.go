// Package observe is the runtime protocol-invariant observer layer: a
// deterministic, zero-cost-when-off companion to every chaos scenario and
// sweep point that checks each protocol's safety argument while it runs,
// in the style of "Specification and Runtime Checking of Derecho".
//
// The abcast checker validates atomic broadcast end to end (integrity, no
// duplication, total order) but says nothing about *why* a protocol is
// correct; when it fires, the root cause is an arbitrary distance upstream.
// An observer instead subscribes to the protocol facts the seven systems
// emit (trace.Fact: one event per fact, the stream the tracer reads too),
// maintains shadow state per node, and flags the first transition that
// contradicts the protocol's own invariant — virtual-synchrony view
// agreement for derecho, log matching for raft/zab, ballot monotonicity for
// paxos, leader uniqueness per term for the acuerdo ring, committed-prefix
// immutability for apus, and per-cell monotonicity for every SST. No
// register only re-checks the checker (DESIGN.md §6.7).
//
// Design constraints (mirroring internal/trace, see DESIGN.md §6.7):
//
//   - Zero cost when disabled: a group with no subscriber hands its facts
//     to nobody (trace.Emit), and installs no SST write hook. No protocol
//     package imports this one: a group subscribes an Observer as a
//     trace.Subscriber, and Observe is safe on a nil receiver.
//   - No dependency on simnet (facts carry int64 simulated nanoseconds)
//     and none on any protocol package: facts speak in plain integers, so
//     observe sits below all seven systems.
//   - Deterministic: shadow state is updated in simulator event order, maps
//     are only ever indexed (never ranged with side effects), and every
//     check folds its operands into a streaming FNV digest, so two runs of
//     the same seed perform bit-identical check sequences; the seed-replay
//     oracle compares the digest next to the trace fingerprint.
//
// On violation the observer records a structured report (node, invariant,
// witness operands, simulated time, seed), emits a trace.KInvariant event so
// the violation lands in the Chrome export next to the protocol phase
// markers, and keeps running — one broken transition usually cascades, and
// the full cascade is more diagnostic than the first frame alone.
package observe

import (
	"fmt"
	"strings"

	"acuerdo/internal/digest"
	"acuerdo/internal/trace"
)

// Invariant identifies one checked protocol invariant. Invariants are
// stable small integers; names live in a side table so the check fast path
// never touches a string.
type Invariant uint8

// The invariant catalog. Each constant names one property a fact is checked
// against; DESIGN.md §6.7 gives the full statement, the known-unsound cases
// and the protocol-mutant verdict that keeps each one.
const (
	// InvSSTMonotone: registered cells of an SST row never decrease
	// (per-cell monotonicity — the property that makes last-write-wins
	// RDMA pushes safe).
	InvSSTMonotone Invariant = iota
	// InvViewAgreement: every node installing view v installs the same
	// membership (derecho virtual synchrony).
	InvViewAgreement
	// InvViewMajority: a new view's membership intersects the installing
	// node's previous view in a majority of the previous membership (the
	// rule that prevents split-brain across a partition).
	InvViewMajority
	// InvVirtualSynchrony: nodes installing view v have delivered an
	// identical message prefix at the moment of installation (no delivery
	// across view gaps).
	InvVirtualSynchrony
	// InvLogMatching: two log entries with the same (index, term) carry
	// the same payload, across all nodes and all time (raft Log Matching;
	// zab's zxid analogue).
	InvLogMatching
	// InvCommitQuorum: a commit index never advances past an entry that is
	// not yet replicated on a majority of shadow logs.
	InvCommitQuorum
	// InvCommitMonotone: a node's commit point never regresses (except
	// across a restart, where volatile commit state may legally rewind).
	InvCommitMonotone
	// InvPrefixImmutable: no truncation or overwrite ever touches a node's
	// committed prefix, and a leader never reassigns an already-assigned
	// replication slot (apus committed-prefix immutability).
	InvPrefixImmutable
	// InvDeliveryAgreement: two nodes delivering at the same Deliver or
	// DeliverSlot position, or under the same Acuerdo header, deliver the
	// same message, across restarts too, where the checker's replay window
	// accepts a retrace from anywhere.
	InvDeliveryAgreement
	// InvDeliveryContiguous: a node's delivery sequence has no gaps.
	InvDeliveryContiguous
	// InvBallotMonotone: an acceptor's promised ballot never decreases
	// (paxos P1a/P2a discipline).
	InvBallotMonotone
	// InvBallotSingleValue: at most one value is ever accepted under a
	// given (instance, ballot) pair.
	InvBallotSingleValue
	// InvChosenAgreement: an instance is chosen with at most one value.
	InvChosenAgreement
	// InvLeaderUniqueness: at most one node wins a given term/epoch, and
	// (for the acuerdo ring) the winner is the node named by the epoch.
	InvLeaderUniqueness
	// InvDurablePrefix: the disk-acknowledged durable commit frontier never
	// regresses while the device is healthy, and crash recovery never
	// reports a frontier below the pre-crash durable floor — no entry the
	// node acknowledged as committed-and-fsynced ever vanishes across a
	// restart. A DiskFault (checksum-caught corruption, wiped device)
	// legitimately resets the floor.
	InvDurablePrefix
	// InvRecoveredPrefix: the log a node reads back from disk during crash
	// recovery is a prefix of the log it held before the crash — same
	// (term, id) at every recovered index, and the recovered log covers the
	// commit frontier the node claims.
	InvRecoveredPrefix

	numInvariants
)

// NumInvariants is the number of defined invariants (for iteration).
const NumInvariants = int(numInvariants)

var invariantNames = [numInvariants]string{
	InvSSTMonotone:        "sst-monotone",
	InvViewAgreement:      "view-agreement",
	InvViewMajority:       "view-majority",
	InvVirtualSynchrony:   "virtual-synchrony",
	InvLogMatching:        "log-matching",
	InvCommitQuorum:       "commit-quorum",
	InvCommitMonotone:     "commit-monotone",
	InvPrefixImmutable:    "prefix-immutable",
	InvDeliveryAgreement:  "delivery-agreement",
	InvDeliveryContiguous: "delivery-contiguous",
	InvBallotMonotone:     "ballot-monotone",
	InvBallotSingleValue:  "ballot-single-value",
	InvChosenAgreement:    "chosen-agreement",
	InvLeaderUniqueness:   "leader-uniqueness",
	InvDurablePrefix:      "durable-prefix",
	InvRecoveredPrefix:    "recovered-prefix",
}

// String returns the invariant's stable name ("log-matching", ...).
func (i Invariant) String() string {
	if int(i) < len(invariantNames) {
		return invariantNames[i]
	}
	return "unknown"
}

// Config parameterizes one observer, which watches one cluster instance.
type Config struct {
	// System is the observed system's name, stamped into every violation.
	System string
	// Nodes is the cluster size; quorum checks use Nodes/2+1.
	Nodes int
	// Seed is the simulation seed, stamped into violations so a report is
	// replayable on its own.
	Seed int64
	// Tracer, when non-nil, is asked at each violation for the tracer that
	// receives its trace.KInvariant event, so violations land in the Chrome
	// export whichever of observer and tracer was set up first.
	Tracer func() *trace.Tracer
}

// Violation is one structured invariant-violation report: the witness the
// observer saw, where and when it saw it, and the seed to replay it.
type Violation struct {
	// System is the observed system ("raft", "derecho", ...).
	System string
	// Invariant names the violated property.
	Invariant Invariant
	// Node is the replica whose transition tripped the check.
	Node int
	// At is the simulated time of the transition, in nanoseconds.
	At int64
	// Seed reproduces the run.
	Seed int64
	// A and B are the invariant-specific witness operands (the conflicting
	// values, the regressed index, ...). Detail spells them out.
	A, B int64
	// Detail is the human-readable witness statement.
	Detail string
}

// String renders the violation as one line, witness included.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s at node %d t=%dns seed=%d: %s (a=%d b=%d)",
		v.System, v.Invariant, v.Node, v.At, v.Seed, v.Detail, v.A, v.B)
}

// maxViolations bounds the retained reports; one broken invariant under
// closed-loop load cascades into thousands of identical witnesses, and the
// first few localize the bug. Violations past the cap are still counted,
// folded into the digest, and traced.
const maxViolations = 64

// registry spaces: one global first-writer-wins table serves every
// agreement-flavored invariant, keyed by (space, a, b).
const (
	spaceLog uint8 = iota + 1
	spaceDeliver
	spaceBallot
	spaceChosen
	spaceLeader
	spaceView
	spaceVSCount
	spaceVSHash
	spaceAssign
	spaceHdr
)

// regName says which register a checkReg call guards. A witness's text is
// built from it and the register's key only when a check fails (text), so
// the checks format nothing on the clean path.
type regName uint8

const (
	regDelivery regName = iota
	regDerechoView
	regDerechoPrefixLen
	regDerechoPrefixHash
	regLogEntry
	regPaxosValue
	regPaxosChosen
	regLeader
	regAcuerdoHeader
	regApusAssign
	regApusDeliver
)

// text names the register keyed (a, b) in a witness.
func (r regName) text(a, b uint64) string {
	switch r {
	case regDelivery:
		return fmt.Sprintf("delivery position %d", a)
	case regDerechoView:
		return fmt.Sprintf("derecho view %d membership", a)
	case regDerechoPrefixLen:
		return fmt.Sprintf("derecho view %d delivered-prefix length", a)
	case regDerechoPrefixHash:
		return fmt.Sprintf("derecho view %d delivered-prefix hash", a)
	case regLogEntry:
		return fmt.Sprintf("log entry (index %d, term %d)", a, b)
	case regPaxosValue:
		return fmt.Sprintf("paxos (instance %d, ballot %d) value", a, b)
	case regPaxosChosen:
		return fmt.Sprintf("paxos instance %d chosen value", a)
	case regLeader:
		return fmt.Sprintf("leader for term %d", a)
	case regAcuerdoHeader:
		return fmt.Sprintf("acuerdo header (round %d, ldr %d, cnt %d) payload", a>>32, uint32(a), b)
	case regApusAssign:
		return fmt.Sprintf("apus slot %d assignment", a)
	default: // regApusDeliver
		return fmt.Sprintf("apus slot %d delivered payload", a)
	}
}

// check opcodes folded into the digest, one per check, so the digest
// distinguishes which checks ran, not just which operands flowed by.
const (
	opSSTSet uint64 = iota + 1
	opDerechoDeliver
	opViewInstall
	opLogAppend
	opLogTruncate
	opCommitAdvance
	opDeliver
	opPromise
	opAccept
	opChosen
	opLeader
	opAcuerdoCommit
	opAssign
	opRestart
	opViolation
	opDurableFrontier
	opDiskFault
	opLogRecover
	opRecoverDone
)

type regKey struct {
	space uint8
	a, b  uint64
}

type regEntry struct {
	val  int64
	node int32
	at   int64
}

// logEntry is one slot of a node's shadow log.
type logEntry struct {
	term  uint64
	id    int64
	valid bool
}

// nodeState is the per-node shadow state every checker reads and writes.
type nodeState struct {
	// raft/zab shadow log and committed-prefix length.
	log         []logEntry
	commitLen   uint64
	commitValid bool

	// generic delivery sequencing.
	deliverNext uint64
	deliverSeen bool

	// paxos acceptor promise.
	promised     uint64
	promisedSeen bool

	// derecho membership and delivered-prefix summary.
	members    []int
	dCount     uint64
	dHash      digest.Sum
	vsEligible bool

	// acuerdo committed header (epoch as round<<32|ldr, count).
	aEpoch, aCnt uint64
	aSeen        bool

	// disk-acknowledged durable commit frontier (entries known fsynced
	// and committed; the floor crash recovery is held to).
	durableLen  uint64
	durableSeen bool
}

// sstShadow is the observer's copy of one SST's last-seen rows, under the
// table's monotone-cell declaration.
type sstShadow struct {
	cells *trace.Cells
	rows  [][]byte
	seen  []bool
}

// Observer checks one cluster's protocol invariants as it runs. Observe and
// every accessor are safe on a nil receiver (no-ops), which is the disabled
// state.
// An Observer is not safe for concurrent use; the simulator is
// single-threaded by construction.
type Observer struct {
	cfg    Config
	digest digest.Sum
	checks uint64

	counts [numInvariants]int64
	fails  [numInvariants]int64

	violations []Violation
	truncated  int64

	reg    map[regKey]regEntry
	nodes  []nodeState
	tables []*sstShadow
}

// New returns an enabled observer for one cluster of cfg.Nodes replicas.
func New(cfg Config) *Observer {
	o := &Observer{
		cfg:    cfg,
		digest: digest.Offset,
		reg:    make(map[regKey]regEntry),
		nodes:  make([]nodeState, cfg.Nodes),
	}
	for i := range o.nodes {
		o.nodes[i].vsEligible = true
	}
	return o
}

// fold mixes one check into the streaming digest and counts it against
// inv.
func (o *Observer) fold(inv Invariant, op uint64, node int, at, a, b int64) {
	o.checks++
	o.counts[inv]++
	o.digest = o.digest.Word(op).Word(uint64(int64(node))).
		Word(uint64(at)).Word(uint64(a)).Word(uint64(b))
}

// violate records one violation: report (capped), counters, digest fold,
// and a trace event.
func (o *Observer) violate(inv Invariant, node int, at, a, b int64, format string, args ...any) {
	o.fails[inv]++
	o.digest = o.digest.Word(opViolation).Word(uint64(inv))
	if o.cfg.Tracer != nil {
		tr := o.cfg.Tracer()
		tr.Instant(trace.KInvariant, node, at, int64(inv), a)
		tr.Add(trace.CtrViolations, 1)
	}
	if len(o.violations) >= maxViolations {
		o.truncated++
		return
	}
	o.violations = append(o.violations, Violation{
		System:    o.cfg.System,
		Invariant: inv,
		Node:      node,
		At:        at,
		Seed:      o.cfg.Seed,
		A:         a,
		B:         b,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// checkReg enforces first-writer-wins agreement on key: the first value
// recorded under key is the truth, and any later disagreement is a
// violation of inv. Returns the winning entry.
func (o *Observer) checkReg(space uint8, a, b uint64, val int64, inv Invariant, node int, at int64, what regName) regEntry {
	key := regKey{space: space, a: a, b: b}
	e, ok := o.reg[key]
	if !ok {
		e = regEntry{val: val, node: int32(node), at: at}
		o.reg[key] = e
		return e
	}
	if e.val != val {
		o.violate(inv, node, at, val, e.val,
			"%s: node %d recorded %d but node %d recorded %d at t=%dns",
			what.text(a, b), node, val, e.node, e.val, e.at)
	}
	return e
}

// quorum returns the cluster's majority size.
func (o *Observer) quorum() int { return o.cfg.Nodes/2 + 1 }

// --- the entry point -------------------------------------------------------

// Observe checks one protocol fact against the invariants its kind carries
// (DESIGN §6.7 maps each kind to its invariants); kinds no invariant reads
// pass unchecked. It is the observer's one entry point: a group's fact stream
// calls it (trace.Subscriber), and the harness reports a wiped disk through it
// (trace.DiskFault). Safe on a nil receiver, which is the disabled state.
func (o *Observer) Observe(f trace.Fact) {
	if o == nil {
		return
	}
	n, at := f.Replica, f.At
	switch f.Kind {
	case trace.Append, trace.Replicate, trace.Adopt:
		o.logAppend(n, at, f.Index, f.Term, f.ID)
	case trace.Assign:
		o.assign(n, at, f.Index, f.ID)
	case trace.Vote:
		o.vote(n, at, f.Index, f.Term, f.ID)
	case trace.Promise:
		o.promise(n, at, f.Term)
	case trace.Learn:
		o.learn(n, at, f.Index, f.ID)
	case trace.Deliver, trace.Commit:
		o.deliver(n, at, f.Index, f.ID)
	case trace.DeliverSlot, trace.CommitSlot:
		o.deliverSlot(n, at, f.Index, f.ID)
	case trace.DeliverHeader, trace.CommitHeader:
		o.deliverHeader(n, at, f.Term, f.Index, f.ID)
	case trace.DeliverView, trace.CommitView:
		o.deliverView(n, at, int64(f.Term), f.ID)
	case trace.Advance:
		o.commitAdvance(n, at, f.Index)
	case trace.Truncate:
		o.logTruncate(n, at, f.Index)
	case trace.Win:
		o.win(n, at, f.Term, f.ID)
	case trace.Install:
		o.install(n, at, f.Term, f.Index)
	case trace.Restart:
		o.restart(n, at)
	case trace.Durable:
		o.durable(n, at, f.Index)
	case trace.DiskFault:
		o.diskFault(n, at)
	case trace.Recover:
		o.recover(n, at, f.Index, f.Term, f.ID)
	case trace.Recovered:
		o.recovered(n, at, f.Index, f.Term)
	case trace.SSTWrite:
		o.sstWrite(n, at, f.Cells, f.Row)
	}
}

// --- lifecycle ------------------------------------------------------------

// restart resets the parts of node's shadow state that a protocol may
// legally rewind across a crash/restart: the commit point (raft's volatile
// commit index), delivery-sequence base, and the acuerdo committed header.
// Protocols report a Restart from their restart path before mirroring any
// state changes, so the restart itself never reads as a violation. The node is
// permanently excluded from the derecho virtual-synchrony prefix comparison
// (a rejoining node's delivered prefix legitimately diverges — a documented
// unsound case).
func (o *Observer) restart(node int, at int64) {
	o.fold(InvCommitMonotone, opRestart, node, at, 0, 0)
	ns := &o.nodes[node]
	ns.commitValid = false
	ns.deliverSeen = false
	ns.aSeen = false
	ns.vsEligible = false
	ns.members = nil
}

// --- SST ------------------------------------------------------------------

// leU64 and leU32 decode little-endian cells without importing
// encoding/binary on the hot path (the offsets are declared by the table).
func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// sstWrite checks one write of node's own row of the table cells declares
// against the shadow copy: every declared monotone cell must be >= its
// previous value. A table's shadow is made the first time one of its rows
// is written, and its handle (folded into the digest) is that order.
func (o *Observer) sstWrite(node int, at int64, cells *trace.Cells, row []byte) {
	table := 0
	for table < len(o.tables) && o.tables[table].cells != cells {
		table++
	}
	if table == len(o.tables) {
		sh := &sstShadow{cells: cells, rows: make([][]byte, len(o.nodes)), seen: make([]bool, len(o.nodes))}
		for i := range sh.rows {
			sh.rows[i] = make([]byte, len(row))
		}
		o.tables = append(o.tables, sh)
	}
	sh := o.tables[table]
	o.fold(InvSSTMonotone, opSSTSet, node, at, int64(table), int64(len(row)))
	if sh.seen[node] {
		old := sh.rows[node]
		for _, off := range cells.U64 {
			a, b := leU64(old[off:off+8]), leU64(row[off:off+8])
			if b < a {
				o.violate(InvSSTMonotone, node, at, int64(b), int64(a),
					"sst %s: u64 cell at offset %d regressed %d -> %d", cells.Table, off, a, b)
			}
		}
		for _, off := range cells.U32 {
			a, b := leU32(old[off:off+4]), leU32(row[off:off+4])
			if b < a {
				o.violate(InvSSTMonotone, node, at, int64(b), int64(a),
					"sst %s: u32 cell at offset %d regressed %d -> %d", cells.Table, off, a, b)
			}
		}
	}
	copy(sh.rows[node], row)
	sh.seen[node] = true
}

// --- derecho --------------------------------------------------------------

// deliverView records one stable delivery at node into its delivered-prefix
// summary (length and hash), which install compares across the members of a
// view (virtual synchrony).
func (o *Observer) deliverView(node int, at int64, sender, id int64) {
	o.fold(InvVirtualSynchrony, opDerechoDeliver, node, at, sender, id)
	ns := &o.nodes[node]
	ns.dCount++
	h := ns.dHash
	if h == 0 {
		h = digest.Offset
	}
	ns.dHash = h.Word(uint64(sender)).Word(uint64(id))
}

// install checks the virtual-synchrony invariants as node installs view v
// with the membership whose bits mask sets: all installers of v agree on
// membership (view agreement), the new membership intersects the node's
// previous membership in a majority of it (majority view change), and all
// never-restarted installers of v have delivered an identical prefix at
// installation time (no delivery across view gaps).
func (o *Observer) install(node int, at int64, view, mask uint64) {
	var members []int
	for m := 0; mask != 0; m, mask = m+1, mask>>1 {
		if mask&1 != 0 {
			members = append(members, m)
		}
	}
	mh := digest.Offset
	for _, m := range members {
		mh = mh.Word(uint64(int64(m)))
	}
	o.fold(InvViewAgreement, opViewInstall, node, at, int64(view), int64(mh))
	o.checkReg(spaceView, view, 0, int64(mh), InvViewAgreement, node, at, regDerechoView)
	ns := &o.nodes[node]
	if ns.members != nil {
		inter := 0
		for _, m := range members {
			for _, p := range ns.members {
				if m == p {
					inter++
					break
				}
			}
		}
		o.counts[InvViewMajority]++
		if inter <= len(ns.members)/2 {
			o.violate(InvViewMajority, node, at, int64(view), int64(inter),
				"derecho view %d: new membership %v intersects previous %v in only %d nodes (need > %d)",
				view, members, ns.members, inter, len(ns.members)/2)
		}
	}
	ns.members = append(ns.members[:0], members...)
	if ns.vsEligible {
		o.counts[InvVirtualSynchrony]++
		o.checkReg(spaceVSCount, view, 0, int64(ns.dCount), InvVirtualSynchrony, node, at, regDerechoPrefixLen)
		o.checkReg(spaceVSHash, view, 0, int64(ns.dHash), InvVirtualSynchrony, node, at, regDerechoPrefixHash)
	}
}

// --- raft / zab logs ------------------------------------------------------

// logAppend records node writing entry (index, term, id) and checks log
// matching (same (index, term) implies same payload, globally) and
// committed-prefix immutability (no overwrite below the node's commit
// point with a different entry). index is zero-based.
func (o *Observer) logAppend(node int, at int64, index, term uint64, id int64) {
	o.fold(InvLogMatching, opLogAppend, node, at, int64(index), id)
	o.checkReg(spaceLog, index, term, id, InvLogMatching, node, at, regLogEntry)
	ns := &o.nodes[node]
	for uint64(len(ns.log)) <= index {
		ns.log = append(ns.log, logEntry{})
	}
	old := ns.log[index]
	if old.valid && (old.term != term || old.id != id) && ns.commitValid && index < ns.commitLen {
		o.violate(InvPrefixImmutable, node, at, int64(index), int64(ns.commitLen),
			"log entry at committed index %d overwritten: (term %d, id %d) -> (term %d, id %d), commit length %d",
			index, old.term, old.id, term, id, ns.commitLen)
	}
	ns.log[index] = logEntry{term: term, id: id, valid: true}
}

// logTruncate records node truncating its log to newLen entries and checks
// that the truncation stays above the node's committed prefix.
func (o *Observer) logTruncate(node int, at int64, newLen uint64) {
	o.fold(InvPrefixImmutable, opLogTruncate, node, at, int64(newLen), 0)
	ns := &o.nodes[node]
	if ns.commitValid && newLen < ns.commitLen {
		o.violate(InvPrefixImmutable, node, at, int64(newLen), int64(ns.commitLen),
			"log truncated to %d entries below commit length %d", newLen, ns.commitLen)
	}
	if uint64(len(ns.log)) > newLen {
		ns.log = ns.log[:newLen]
	}
}

// commitAdvance records node advancing its committed prefix to newLen
// entries and checks that the commit point is monotone (restarts excepted)
// and that the newly committed entry is replicated on a majority of shadow
// logs with a matching (term, id).
func (o *Observer) commitAdvance(node int, at int64, newLen uint64) {
	o.fold(InvCommitQuorum, opCommitAdvance, node, at, int64(newLen), 0)
	ns := &o.nodes[node]
	if ns.commitValid && newLen < ns.commitLen {
		o.violate(InvCommitMonotone, node, at, int64(newLen), int64(ns.commitLen),
			"commit length regressed %d -> %d without a restart", ns.commitLen, newLen)
	}
	o.counts[InvCommitMonotone]++
	if newLen > 0 {
		idx := newLen - 1
		if uint64(len(ns.log)) <= idx || !ns.log[idx].valid {
			o.violate(InvCommitQuorum, node, at, int64(idx), int64(len(ns.log)),
				"commit advanced to length %d but node's own log has no entry at index %d", newLen, idx)
		} else {
			want := ns.log[idx]
			replicas := 0
			for n := range o.nodes {
				l := o.nodes[n].log
				if uint64(len(l)) > idx && l[idx].valid && l[idx].term == want.term && l[idx].id == want.id {
					replicas++
				}
			}
			if replicas < o.quorum() {
				o.violate(InvCommitQuorum, node, at, int64(idx), int64(replicas),
					"entry (index %d, term %d) committed with only %d/%d replicas (need %d)",
					idx, want.term, replicas, o.cfg.Nodes, o.quorum())
			}
		}
	}
	ns.commitLen = newLen
	ns.commitValid = true
}

// --- generic delivery -----------------------------------------------------

// deliver records node delivering message id at sequence position seq and
// checks contiguity (no gaps in the node's own sequence; the base re-arms
// after a restart) and cross-node agreement (same position, same message).
func (o *Observer) deliver(node int, at int64, seq uint64, id int64) {
	o.fold(InvDeliveryContiguous, opDeliver, node, at, int64(seq), id)
	ns := &o.nodes[node]
	if ns.deliverSeen && seq != ns.deliverNext {
		o.violate(InvDeliveryContiguous, node, at, int64(seq), int64(ns.deliverNext),
			"delivery sequence gap: delivered position %d, expected %d", seq, ns.deliverNext)
	}
	ns.deliverNext = seq + 1
	ns.deliverSeen = true
	o.counts[InvDeliveryAgreement]++
	o.checkReg(spaceDeliver, seq, 0, id, InvDeliveryAgreement, node, at, regDelivery)
}

// --- durability -----------------------------------------------------------

// durable records node's disk acknowledging that the first n committed
// entries are durable (the commit-metadata fsync completed) and checks that
// the frontier never regresses while the device is healthy. This frontier
// is the floor crash recovery is held to in recovered.
func (o *Observer) durable(node int, at int64, n uint64) {
	o.fold(InvDurablePrefix, opDurableFrontier, node, at, int64(n), 0)
	ns := &o.nodes[node]
	if ns.durableSeen && n < ns.durableLen {
		o.violate(InvDurablePrefix, node, at, int64(n), int64(ns.durableLen),
			"durable commit frontier regressed %d -> %d without a disk fault", ns.durableLen, n)
	}
	if !ns.durableSeen || n > ns.durableLen {
		ns.durableLen = n
	}
	ns.durableSeen = true
}

// diskFault records a fault that legitimately destroys durable state at
// node — checksum-caught corruption, a wiped (amnesiac) device — and
// resets the durable floor so the next recovery is not held to it.
func (o *Observer) diskFault(node int, at int64) {
	o.fold(InvDurablePrefix, opDiskFault, node, at, 0, 0)
	ns := &o.nodes[node]
	ns.durableLen = 0
	ns.durableSeen = false
}

// recover records node reading entry (index, term, id) back from its disk
// during crash recovery and checks that it matches the pre-crash shadow log
// — recovered state must be a prefix of what the node held — plus global
// log matching. It comes after the Restart, before the Recovered.
func (o *Observer) recover(node int, at int64, index, term uint64, id int64) {
	o.fold(InvRecoveredPrefix, opLogRecover, node, at, int64(index), id)
	ns := &o.nodes[node]
	if uint64(len(ns.log)) > index {
		if old := ns.log[index]; old.valid && (old.term != term || old.id != id) {
			o.violate(InvRecoveredPrefix, node, at, int64(index), id,
				"recovered entry (index %d, term %d, id %d) diverges from pre-crash (term %d, id %d)",
				index, term, id, old.term, old.id)
		}
	}
	o.counts[InvLogMatching]++
	o.checkReg(spaceLog, index, term, id, InvLogMatching, node, at, regLogEntry)
	for uint64(len(ns.log)) <= index {
		ns.log = append(ns.log, logEntry{})
	}
	ns.log[index] = logEntry{term: term, id: id, valid: true}
}

// recovered closes node's crash recovery: the recovered log holds logLen
// entries and the node claims a committed frontier of frontier entries.
// Checks the durable floor — every entry the disk acknowledged as durable
// before the crash must have survived (InvDurablePrefix: no committed-
// then-acknowledged entry vanishes) — and that the recovered log covers
// the claimed frontier. The shadow log truncates to the recovered length
// (the volatile tail is legitimately gone) and the restart's commit
// amnesty tightens back up: commit regression below the recovered
// frontier counts as a violation again.
func (o *Observer) recovered(node int, at int64, logLen, frontier uint64) {
	o.fold(InvDurablePrefix, opRecoverDone, node, at, int64(logLen), int64(frontier))
	ns := &o.nodes[node]
	if ns.durableSeen && frontier < ns.durableLen {
		o.violate(InvDurablePrefix, node, at, int64(frontier), int64(ns.durableLen),
			"recovery lost committed durable entries: recovered frontier %d below durable floor %d",
			frontier, ns.durableLen)
	}
	o.counts[InvRecoveredPrefix]++
	if logLen < frontier {
		o.violate(InvRecoveredPrefix, node, at, int64(logLen), int64(frontier),
			"recovered log (%d entries) does not cover claimed commit frontier %d", logLen, frontier)
	}
	if uint64(len(ns.log)) > logLen {
		ns.log = ns.log[:logLen]
	}
	ns.commitLen = frontier
	ns.commitValid = true
	ns.durableLen = frontier
	ns.durableSeen = true
}

// --- paxos ----------------------------------------------------------------

// promise records acceptor node promising ballot and checks that the
// promise never regresses.
func (o *Observer) promise(node int, at int64, ballot uint64) {
	o.fold(InvBallotMonotone, opPromise, node, at, int64(ballot), 0)
	ns := &o.nodes[node]
	if ns.promisedSeen && ballot < ns.promised {
		o.violate(InvBallotMonotone, node, at, int64(ballot), int64(ns.promised),
			"promised ballot regressed %d -> %d", ns.promised, ballot)
	}
	if !ns.promisedSeen || ballot > ns.promised {
		ns.promised = ballot
	}
	ns.promisedSeen = true
}

// vote records acceptor node accepting id for (inst, ballot) and checks
// ballot monotonicity (accepting implies promising) plus
// single-value-per-ballot: every acceptance under one (instance, ballot)
// carries the same value.
func (o *Observer) vote(node int, at int64, inst, ballot uint64, id int64) {
	o.fold(InvBallotSingleValue, opAccept, node, at, int64(inst), id)
	ns := &o.nodes[node]
	o.counts[InvBallotMonotone]++
	if ns.promisedSeen && ballot < ns.promised {
		o.violate(InvBallotMonotone, node, at, int64(ballot), int64(ns.promised),
			"accepted ballot %d below promised %d in instance %d", ballot, ns.promised, inst)
	}
	if !ns.promisedSeen || ballot > ns.promised {
		ns.promised = ballot
	}
	ns.promisedSeen = true
	o.checkReg(spaceBallot, inst, ballot, id, InvBallotSingleValue, node, at, regPaxosValue)
}

// learn records node learning that inst chose id and checks that an
// instance is only ever chosen with one value.
func (o *Observer) learn(node int, at int64, inst uint64, id int64) {
	o.fold(InvChosenAgreement, opChosen, node, at, int64(inst), id)
	o.checkReg(spaceChosen, inst, 0, id, InvChosenAgreement, node, at, regPaxosChosen)
}

// --- elections ------------------------------------------------------------

// win records node winning term, which names leader, and checks that the
// winner is the node the term names (an acuerdo epoch, round<<32|ldr, names
// its leader; a raft term or paxos ballot names the winner itself) and that
// a term is won once in the whole run, restarts included: not by another
// node, and not again by the node that already led it — a replica that lost
// its state and is re-elected into an epoch it used before numbers new
// entries over old ones.
func (o *Observer) win(node int, at int64, term uint64, leader int64) {
	if leader != int64(node) {
		o.fold(InvLeaderUniqueness, opLeader, node, at, int64(term>>32), leader)
		o.violate(InvLeaderUniqueness, node, at, int64(term>>32), leader,
			"node %d won epoch (round %d, ldr %d) naming a different leader", node, term>>32, leader)
		return
	}
	o.fold(InvLeaderUniqueness, opLeader, node, at, int64(term), 0)
	e := o.checkReg(spaceLeader, term, 0, int64(node), InvLeaderUniqueness, node, at, regLeader)
	if e.val == int64(node) && e.at != at {
		o.violate(InvLeaderUniqueness, node, at, int64(term), e.at,
			"node %d won term %d again: it already led it at t=%dns", node, term, e.at)
	}
}

// --- acuerdo commits ------------------------------------------------------

// deliverHeader records node committing the entry with header (epoch,
// cnt) carrying id, and checks that the node's committed header is monotone
// in header order — epoch (round<<32|ldr, so round then leader), then count,
// the order of acuerdo.MsgHdr.Cmp — restarts excepted, and that every node
// binds the same payload to the same header, a durable restart's replay
// included.
func (o *Observer) deliverHeader(node int, at int64, epoch, cnt uint64, id int64) {
	o.fold(InvCommitMonotone, opAcuerdoCommit, node, at, int64(epoch), int64(cnt))
	ns := &o.nodes[node]
	if ns.aSeen && (epoch < ns.aEpoch || epoch == ns.aEpoch && cnt < ns.aCnt) {
		o.violate(InvCommitMonotone, node, at, int64(epoch), int64(cnt),
			"committed header regressed (round %d, ldr %d, cnt %d) -> (round %d, ldr %d, cnt %d)",
			ns.aEpoch>>32, uint32(ns.aEpoch), ns.aCnt, epoch>>32, uint32(epoch), cnt)
	}
	ns.aEpoch, ns.aCnt = epoch, cnt
	ns.aSeen = true
	o.counts[InvDeliveryAgreement]++
	o.checkReg(spaceHdr, epoch, cnt, id, InvDeliveryAgreement, node, at, regAcuerdoHeader)
}

// --- apus -----------------------------------------------------------------

// assign records the leader binding replication slot idx to id and checks
// that a slot, once assigned, is never reassigned to a different message
// (committed-prefix immutability at the source).
func (o *Observer) assign(node int, at int64, idx uint64, id int64) {
	o.fold(InvPrefixImmutable, opAssign, node, at, int64(idx), id)
	o.checkReg(spaceAssign, idx, 0, id, InvPrefixImmutable, node, at, regApusAssign)
}

// deliverSlot records node delivering slot idx carrying id: generic
// delivery contiguity/agreement plus a check that the delivered payload
// matches the leader's slot assignment.
func (o *Observer) deliverSlot(node int, at int64, idx uint64, id int64) {
	o.deliver(node, at, idx, id)
	o.counts[InvPrefixImmutable]++
	o.checkReg(spaceAssign, idx, 0, id, InvPrefixImmutable, node, at, regApusDeliver)
}

// --- results --------------------------------------------------------------

// Digest returns the streaming FNV digest over every check and
// violation so far. Two same-seed runs must produce the same digest; the
// replay harness asserts exactly that. Zero on a nil observer.
func (o *Observer) Digest() digest.Sum {
	if o == nil {
		return 0
	}
	return o.digest
}

// Checks returns the total number of checks run (0 on nil).
func (o *Observer) Checks() uint64 {
	if o == nil {
		return 0
	}
	return o.checks
}

// ViolationCount returns the total number of violations, including any
// past the retention cap.
func (o *Observer) ViolationCount() int64 {
	if o == nil {
		return 0
	}
	return int64(len(o.violations)) + o.truncated
}

// Violations returns the retained violation reports in detection order.
// The slice is a copy.
func (o *Observer) Violations() []Violation {
	if o == nil {
		return nil
	}
	return append([]Violation(nil), o.violations...)
}

// Report renders every retained violation, one per line, with a truncation
// note when reports were capped. Empty when no invariant fired.
func (o *Observer) Report() string {
	if o == nil || o.ViolationCount() == 0 {
		return ""
	}
	var sb strings.Builder
	for _, v := range o.violations {
		sb.WriteString(v.String())
		sb.WriteByte('\n')
	}
	if o.truncated > 0 {
		fmt.Fprintf(&sb, "... and %d more violations past the retention cap\n", o.truncated)
	}
	return sb.String()
}

// InvariantCount is one invariant's check and violation tally.
type InvariantCount struct {
	// Invariant names the property.
	Invariant Invariant
	// Checks is how many times the property was evaluated.
	Checks int64
	// Violations is how many evaluations failed.
	Violations int64
}

// Counters returns the per-invariant tallies in invariant order, skipping
// invariants that were never checked. Nil on a nil observer.
func (o *Observer) Counters() []InvariantCount {
	if o == nil {
		return nil
	}
	var out []InvariantCount
	for i := Invariant(0); i < numInvariants; i++ {
		if o.counts[i] == 0 && o.fails[i] == 0 {
			continue
		}
		out = append(out, InvariantCount{Invariant: i, Checks: o.counts[i], Violations: o.fails[i]})
	}
	return out
}
