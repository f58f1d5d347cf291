// Package trace is the structured observability layer for the simulated
// stack: a bounded ring of fixed-size events, per-layer counters, a
// streaming fingerprint over the full event stream, and a per-message
// latency decomposition built from protocol phase markers.
//
// Design constraints (see DESIGN.md §6.2):
//
//   - Zero allocation and near-zero cost when disabled. Every emit method
//     has a nil-receiver fast path, so call sites hold a possibly-nil
//     *Tracer and call unconditionally.
//   - No dependency on simnet (simnet imports trace, not vice versa).
//     Timestamps are int64 simulated nanoseconds.
//   - Deterministic: events carry no strings or pointers, emission order
//     is the simulator's event order, and the fingerprint is folded at
//     emit time, so two runs of the same seed produce identical streams
//     byte for byte — even after the ring has overwritten old events.
package trace

import (
	"encoding/binary"

	"acuerdo/internal/chunks"
	"acuerdo/internal/digest"
)

// Kind identifies an event type. Kinds are stable small integers; names
// live in a side table so emitting an event never touches a string.
type Kind uint8

// Event kinds, grouped by layer.
const (
	// Simulator core.
	KSimEvent    Kind = iota // one scheduled event dispatched; A=sequence number
	KProcRun                 // Proc consumed CPU; Dur=cost
	KProcDesched             // Proc was descheduled; Dur=pause
	KProcCrash               // Proc crashed; A=epoch
	KProcRecover             // Proc recovered; A=epoch
	KPoll                    // one poll-loop iteration; Dur=poll cost

	// RDMA fabric.
	KWRPost  // work request posted; A=wr id, B=payload bytes
	KWireTx  // NIC serialization window; A=bytes on wire
	KWireRx  // bytes landed in remote memory; A=wr id, B=bytes on wire
	KCQE     // signaled write completed at its sender; A=wr id, B=status
	KSigSkip // unsignaled completion suppressed; A=wr id

	// TCP/kernel path.
	KTCPSend   // send syscall; Dur=syscall cost, A=payload bytes
	KTCPWire   // kernel+NIC+link time; A=payload bytes
	KTCPWakeup // receiver wakeup latency; Dur=wakeup
	KTCPRecv   // receive handler ran; Dur=recv cost, A=payload bytes

	// Protocol phases. A=message id (first 8 bytes of payload) except for
	// elections, where A is an epoch/view/term number.
	KSubmit     // client handed payload to the system
	KPropose    // proposer posted the message to the network
	KAccept     // a replica accepted/acked the proposal
	KCommit     // commit decided at the replica that acks the client
	KDeliver    // message delivered to the application
	KAck        // client observed the commit
	KElectStart // election / view change started
	KElectWin   // election / view change completed

	// Fault injection (internal/chaos and the fabric fault hooks).
	KChaosAct // chaos engine fired a plan action; A=action kind, B=target node
	KLinkCut  // one-way link cut installed; A=from node, B=to node
	KLinkHeal // one-way link healed; A=from node, B=to node
	KLossDrop // transmission lost and retransmitted; A=retransmit delay ns
	KLatSpike // latency-spike window changed; A=extra ns (0 clears), B=to node
	KWatchdog // no-progress watchdog fired; A=budget ns, B=progress value

	// Runtime invariant observers (internal/observe). Appended after the
	// chaos kinds so every pre-existing kind keeps its value: observers-off
	// runs emit byte-identical streams to older builds.
	KInvariant // protocol invariant violated; A=invariant id, B=witness operand

	// Simulated disk (internal/disk). Appended after the observer kind so
	// every pre-existing kind keeps its value: disk-off runs emit
	// byte-identical streams to older builds.
	KDiskWrite // bytes buffered into a device file; A=bytes, B=node
	KDiskFsync // fsync made bytes durable; A=bytes synced, B=node
	KDiskFault // disk fault applied (stall/torn/corrupt/full); A=fault id, B=node

	numKinds
)

var kindNames = [numKinds]string{
	KSimEvent:    "sim.event",
	KProcRun:     "proc.run",
	KProcDesched: "proc.desched",
	KProcCrash:   "proc.crash",
	KProcRecover: "proc.recover",
	KPoll:        "proc.poll",
	KWRPost:      "rdma.post",
	KWireTx:      "rdma.wire_tx",
	KWireRx:      "rdma.wire_rx",
	KCQE:         "rdma.cqe",
	KSigSkip:     "rdma.sig_skip",
	KTCPSend:     "tcp.send",
	KTCPWire:     "tcp.wire",
	KTCPWakeup:   "tcp.wakeup",
	KTCPRecv:     "tcp.recv",
	KSubmit:      "proto.submit",
	KPropose:     "proto.propose",
	KAccept:      "proto.accept",
	KCommit:      "proto.commit",
	KDeliver:     "proto.deliver",
	KAck:         "proto.ack",
	KElectStart:  "proto.elect_start",
	KElectWin:    "proto.elect_win",
	KChaosAct:    "chaos.act",
	KLinkCut:     "chaos.link_cut",
	KLinkHeal:    "chaos.link_heal",
	KLossDrop:    "chaos.loss_drop",
	KLatSpike:    "chaos.lat_spike",
	KWatchdog:    "chaos.watchdog",
	KInvariant:   "observe.violation",
	KDiskWrite:   "disk.write",
	KDiskFsync:   "disk.fsync",
	KDiskFault:   "disk.fault",
}

// KindName returns the stable name of k ("rdma.cqe", "proto.commit", ...).
func KindName(k Kind) string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Counter identifies a monotonic per-layer counter.
type Counter uint8

// Counters, grouped by layer.
const (
	CtrSimEvents   Counter = iota // events dispatched by the simulator
	CtrProcTime                   // ns of simulated CPU consumed
	CtrDeschedTime                // ns spent descheduled
	CtrPolls                      // poll-loop iterations
	CtrPollTime                   // ns of poll-loop CPU

	CtrRDMAWrites   // RDMA writes posted
	CtrRDMABytes    // bytes on the RDMA wire (incl. per-message overhead)
	CtrRDMAPostTime // ns of verb-post CPU
	CtrRDMAWireTime // ns of NIC serialization
	CtrCQEs         // completions of signaled writes
	CtrSigSkips     // completions suppressed by selective signaling

	CtrTCPMsgs     // messages sent over TCP
	CtrTCPBytes    // payload bytes sent over TCP
	CtrTCPSendTime // ns of send-syscall CPU
	CtrTCPWakeups  // receiver wakeups

	CtrSubmits   // client submissions
	CtrProposes  // proposals posted
	CtrAccepts   // acceptances recorded
	CtrCommits   // commits decided
	CtrDelivers  // application deliveries
	CtrAcks      // client acks observed
	CtrElections // elections / view changes started

	CtrChaosActs  // chaos plan actions fired
	CtrLinkCuts   // one-way link cuts installed
	CtrLinkHeals  // one-way link heals
	CtrLossDrops  // transmissions lost and retransmitted
	CtrLossDelay  // ns of retransmit delay injected by loss windows
	CtrSpikeDelay // ns of extra latency injected by spike windows
	CtrWatchdogs  // no-progress watchdog firings

	CtrViolations // protocol invariant violations reported by observers

	// Simulated disk (internal/disk).
	CtrDiskWrites     // write calls buffered by devices
	CtrDiskWriteBytes // bytes buffered by devices
	CtrDiskFsyncs     // fsyncs completed by devices
	CtrDiskFsyncBytes // bytes made durable by fsyncs
	CtrDiskFaults     // disk faults applied (stall/torn/corrupt)

	numCounters
)

var counterNames = [numCounters]string{
	CtrSimEvents:      "sim.events",
	CtrProcTime:       "proc.cpu_ns",
	CtrDeschedTime:    "proc.desched_ns",
	CtrPolls:          "proc.polls",
	CtrPollTime:       "proc.poll_ns",
	CtrRDMAWrites:     "rdma.writes",
	CtrRDMABytes:      "rdma.wire_bytes",
	CtrRDMAPostTime:   "rdma.post_ns",
	CtrRDMAWireTime:   "rdma.wire_ns",
	CtrCQEs:           "rdma.cqes",
	CtrSigSkips:       "rdma.sig_skips",
	CtrTCPMsgs:        "tcp.msgs",
	CtrTCPBytes:       "tcp.bytes",
	CtrTCPSendTime:    "tcp.send_ns",
	CtrTCPWakeups:     "tcp.wakeups",
	CtrSubmits:        "proto.submits",
	CtrProposes:       "proto.proposes",
	CtrAccepts:        "proto.accepts",
	CtrCommits:        "proto.commits",
	CtrDelivers:       "proto.delivers",
	CtrAcks:           "proto.acks",
	CtrElections:      "proto.elections",
	CtrChaosActs:      "chaos.actions",
	CtrLinkCuts:       "chaos.link_cuts",
	CtrLinkHeals:      "chaos.link_heals",
	CtrLossDrops:      "chaos.loss_drops",
	CtrLossDelay:      "chaos.loss_delay_ns",
	CtrSpikeDelay:     "chaos.spike_delay_ns",
	CtrWatchdogs:      "chaos.watchdogs",
	CtrViolations:     "observe.violations",
	CtrDiskWrites:     "disk.writes",
	CtrDiskWriteBytes: "disk.write_bytes",
	CtrDiskFsyncs:     "disk.fsyncs",
	CtrDiskFsyncBytes: "disk.fsync_bytes",
	CtrDiskFaults:     "disk.faults",
}

// NumCounters is the number of defined counters (for iteration).
const NumCounters = int(numCounters)

// CounterName returns the stable name of c ("rdma.wire_bytes", ...).
func CounterName(c Counter) string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// Event is one fixed-size trace record. TS and Dur are simulated
// nanoseconds; Dur is zero for instantaneous events. Node is the emitting
// node id, or -1 for simulator-global events. A and B are kind-specific
// operands (see the Kind constants).
type Event struct {
	TS   int64
	Dur  int64
	Kind Kind
	Node int32
	A    int64
	B    int64
}

// stageSet holds the phase timestamps observed for one message id.
// Values are -1 until the stage is seen; each stage is first-wins.
type stageSet struct {
	submit, propose, accept, commit, ack int64
	proposeNode                          int32
}

// Tracer collects events into a bounded ring, maintains counters, and
// folds every emitted event into a streaming FNV-1a fingerprint. All emit
// methods are safe on a nil receiver (no-ops), which is the disabled
// state. A Tracer is not safe for concurrent use; the simulator is
// single-threaded by construction.
type Tracer struct {
	ring    []Event
	start   int // index of oldest event
	n       int // live events in ring
	emitted uint64
	dropped uint64

	counters [numCounters]int64
	fp       digest.Sum

	stages map[int64]int // message id -> its stage set in sets
	sets   chunks.List[stageSet]
	names  map[int32]string
}

// DefaultRing is the ring capacity used when New is given a size <= 0.
const DefaultRing = 1 << 16

// FingerprintRing is a small ring capacity for runs that are traced only
// for their fingerprint, counters, and stage decomposition — all of which
// cover the complete stream regardless of ring depth. A 1k ring keeps the
// per-event ring store inside the cache instead of streaming through
// megabytes, which is a measurable share of a fully traced sweep.
const FingerprintRing = 1 << 10

// New returns an enabled Tracer whose ring holds at most maxEvents events
// (DefaultRing if maxEvents <= 0). Older events are overwritten once the
// ring is full; counters, stages, and the fingerprint keep covering the
// complete stream regardless.
func New(maxEvents int) *Tracer {
	if maxEvents <= 0 {
		maxEvents = DefaultRing
	}
	return &Tracer{
		ring:   make([]Event, maxEvents),
		stages: make(map[int64]int),
		names:  make(map[int32]string),
		fp:     digest.Offset,
	}
}

// emit records ev in the ring, folds it into the fingerprint, and feeds
// the stage tracker.
func (t *Tracer) emit(ev Event) {
	t.emitted++
	// One word-fold round per field (kind and node share a word): five
	// multiplies per event on the hottest emit path. The fold covers the
	// entire stream even after ring overwrite.
	t.fp = t.fp.Word(uint64(ev.TS)).Word(uint64(ev.Dur)).
		Word(uint64(ev.Kind)<<32 | uint64(uint32(ev.Node))).
		Word(uint64(ev.A)).Word(uint64(ev.B))

	// start < len and n <= len always, so a subtract replaces the modulo;
	// the division was measurable at figure-8 event rates.
	if t.n < len(t.ring) {
		i := t.start + t.n
		if i >= len(t.ring) {
			i -= len(t.ring)
		}
		t.ring[i] = ev
		t.n++
	} else {
		t.ring[t.start] = ev
		if t.start++; t.start == len(t.ring) {
			t.start = 0
		}
		t.dropped++
	}

	switch ev.Kind {
	case KSubmit, KPropose, KAccept, KCommit, KAck:
		t.stage(ev)
	}
}

// stage feeds the per-message latency decomposition. Each stage is
// first-wins; KAccept only counts when it comes from a node other than
// the proposer (the local self-accept carries no wire time). A message's
// stage set is a value in sets, appended at its id's first marker.
func (t *Tracer) stage(ev Event) {
	i, ok := t.stages[ev.A]
	if !ok {
		i = t.sets.Len()
		t.sets.Append(stageSet{submit: -1, propose: -1, accept: -1, commit: -1, ack: -1, proposeNode: -1})
		t.stages[ev.A] = i
	}
	s := t.sets.Ptr(i)
	switch ev.Kind {
	case KSubmit:
		if s.submit < 0 {
			s.submit = ev.TS
		}
	case KPropose:
		if s.propose < 0 {
			s.propose = ev.TS
			s.proposeNode = ev.Node
		}
	case KAccept:
		if s.accept < 0 && ev.Node != s.proposeNode {
			s.accept = ev.TS
		}
	case KCommit:
		if s.commit < 0 {
			s.commit = ev.TS
		}
	case KAck:
		if s.ack < 0 {
			s.ack = ev.TS
		}
	}
}

// SimEvent is the simulator dispatch-path fast emit: equivalent to
// Instant(KSimEvent, -1, ts, seq, 0) followed by Add(CtrSimEvents, 1), in
// one call. This is the single hottest emit in the system — once per
// dispatched event — so it gets a dedicated allocation-free entry point.
func (t *Tracer) SimEvent(ts, seq int64) {
	if t == nil {
		return
	}
	t.counters[CtrSimEvents]++
	t.emit(Event{TS: ts, Kind: KSimEvent, Node: -1, A: seq})
}

// Span records an event with a duration. ts is the span start.
func (t *Tracer) Span(k Kind, node int, ts, dur, a, b int64) {
	if t == nil {
		return
	}
	t.emit(Event{TS: ts, Dur: dur, Kind: k, Node: int32(node), A: a, B: b})
}

// Instant records a zero-duration event at ts.
func (t *Tracer) Instant(k Kind, node int, ts, a, b int64) {
	if t == nil {
		return
	}
	t.emit(Event{TS: ts, Kind: k, Node: int32(node), A: a, B: b})
}

// Add bumps counter c by delta.
func (t *Tracer) Add(c Counter, delta int64) {
	if t == nil {
		return
	}
	t.counters[c] += delta
}

// Counter returns the current value of c (0 on a nil Tracer).
func (t *Tracer) Counter(c Counter) int64 {
	if t == nil {
		return 0
	}
	return t.counters[c]
}

// Events returns the ring contents oldest-first. The slice is a copy.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.ring[(t.start+i)%len(t.ring)]
	}
	return out
}

// Emitted returns the total number of events emitted, including any that
// the ring has since overwritten.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Fingerprint returns the streaming FNV-1a hash over every event emitted
// so far. Two runs with the same seed must produce the same fingerprint;
// the replay harness asserts exactly that.
func (t *Tracer) Fingerprint() digest.Sum {
	if t == nil {
		return 0
	}
	return t.fp
}

// SetThreadName labels a node id for the Chrome export ("replica 0",
// "client", ...). Safe on nil.
func (t *Tracer) SetThreadName(node int, name string) {
	if t == nil {
		return
	}
	t.names[int32(node)] = name
}

// ID extracts the message id convention used by the protocol markers: the
// first 8 bytes of the payload, little-endian (0 if the payload is
// shorter). This matches abcast.MsgID.
func ID(payload []byte) int64 {
	if len(payload) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(payload))
}
