// Package derecho implements the Derecho baseline (Jha et al., TOCS 2019):
// atomic multicast under the virtual synchrony model, over the simulated
// RDMA fabric.
//
// The properties the paper's comparison hinges on are modelled faithfully:
//
//   - every message costs two RDMA writes (payload, then a counter write
//     publishing it), so small messages are half as bandwidth-efficient as
//     Acuerdo's single coupled write;
//   - a message is delivered (committed) only when *every* active member
//     has received it — stability is the minimum over all members' receipt
//     counters, shared through an SST — so the group runs at the speed of
//     its slowest member;
//   - ring-buffer slots are reused only after global stability, so one slow
//     member stalls the sender outright (no per-peer backlog);
//   - derecho-all rotates senders round-robin, interleaving all members'
//     streams into the total order (idle members emit null messages to keep
//     the rotation advancing); derecho-leader has a single sender;
//   - failures trigger a view change: members wedge, the lowest-ranked
//     survivor computes the ragged trim (per-sender minimum receipt count
//     over survivors), everyone delivers exactly the trim and resumes in
//     the new membership.
package derecho

import (
	"encoding/binary"
	"fmt"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/rdma"
	"acuerdo/internal/ringbuf"
	"acuerdo/internal/simnet"
	"acuerdo/internal/sst"
	"acuerdo/internal/trace"
)

// Mode selects the sender policy.
type Mode int

// Modes.
const (
	// LeaderMode: only the lowest-ranked member multicasts.
	LeaderMode Mode = iota
	// AllMode: every member multicasts in round-robin order.
	AllMode
)

func (m Mode) String() string {
	if m == AllMode {
		return "derecho-all"
	}
	return "derecho-leader"
}

// Config tunes the Derecho baseline.
type Config struct {
	N    int
	Mode Mode
	// PollInterval/PollCost model the predicate-evaluation loop (coarser
	// than Acuerdo's tight receive loop).
	PollInterval time.Duration
	PollCost     time.Duration
	// PerMsgCost is CPU per message handled.
	PerMsgCost time.Duration
	// SSTPushInterval caps how often receipt counters are pushed when
	// nothing changes (heartbeat).
	SSTPushInterval time.Duration
	// FailTimeout triggers a view change.
	FailTimeout time.Duration
	// RingBytes sizes each ring; slots recycle only on global stability.
	RingBytes int
}

// DefaultConfig returns calibrated Derecho constants.
func DefaultConfig(n int, mode Mode) Config {
	return Config{
		N:               n,
		Mode:            mode,
		PollInterval:    800 * time.Nanosecond,
		PollCost:        200 * time.Nanosecond,
		PerMsgCost:      200 * time.Nanosecond,
		SSTPushInterval: 10 * time.Microsecond,
		FailTimeout:     4 * time.Millisecond,
		RingBytes:       4 << 20,
	}
}

// Record kinds on the wire.
const (
	kData = byte(iota)
	kNull
	kView
)

// row is one SST row: per-sender receipt counters, a heartbeat, a wedged
// flag, and the node's view number.
type row struct {
	recv   []uint64
	hb     uint64
	wedged bool
	view   uint32
}

type rowCodec struct{ n int }

func (c rowCodec) Size() int { return 8*c.n + 16 }

func (c rowCodec) Encode(dst []byte, r row) {
	for i := 0; i < c.n; i++ {
		var v uint64
		if i < len(r.recv) {
			v = r.recv[i]
		}
		binary.LittleEndian.PutUint64(dst[8*i:], v)
	}
	binary.LittleEndian.PutUint64(dst[8*c.n:], r.hb)
	if r.wedged {
		dst[8*c.n+8] = 1
	} else {
		dst[8*c.n+8] = 0
	}
	binary.LittleEndian.PutUint32(dst[8*c.n+12:], r.view)
}

// Decode reads a row into r, reusing r.recv once it has the right length.
func (c rowCodec) Decode(r *row, src []byte) {
	if len(r.recv) != c.n {
		r.recv = make([]uint64, c.n)
	}
	for i := range r.recv {
		r.recv[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	r.hb = binary.LittleEndian.Uint64(src[8*c.n:])
	r.wedged = src[8*c.n+8] == 1
	r.view = binary.LittleEndian.Uint32(src[8*c.n+12:])
}

// node is one Derecho member.
type node struct {
	g   *Group
	id  int
	rn  *rdma.Node
	out *ringbuf.Sender
	in  []*ringbuf.Receiver
	tab *sst.Table[row]

	view    uint32
	members []int // live membership, ascending
	wedged  bool

	recv     []uint64        // receipt counters (includes nulls and view msgs)
	sessions abcast.Sessions // client-request table, updated at delivery
	pend     [][]pmsg        // per sender: undelivered messages (absolute idx order)
	nd       []uint64        // per sender: next index to deliver (1-based)
	rotPos   int             // rotation position within members
	sendQ    [][]byte        // data payloads awaiting ring capacity
	mySent   uint64          // == recv[id]
	hb       uint64
	lastPush simnet.Time
	rowCache []row // this poll's decoded snapshot; every poll decodes into it

	lastHB   []uint64
	lastHBAt []simnet.Time
}

type pmsg struct {
	idx     uint64
	kind    byte
	payload []byte
}

// Group is a Derecho group on an RDMA fabric.
type Group struct {
	Sim    *simnet.Sim
	Fabric *rdma.Fabric
	Cfg    Config
	nodes  []*node

	// OnDeliver observes every delivery: replica, sender, per-sender
	// index, payload.
	OnDeliver func(replica, sender int, idx uint64, payload []byte)
	// OnViewChange observes view installations.
	OnViewChange func(replica int, view uint32, members []int)

	sub trace.Subscriber
}

// NewGroup builds a group of cfg.N members on the fabric.
func NewGroup(sim *simnet.Sim, fabric *rdma.Fabric, cfg Config) *Group {
	g := &Group{Sim: sim, Fabric: fabric, Cfg: cfg}
	rnodes := make([]*rdma.Node, cfg.N)
	for i := range rnodes {
		rnodes[i] = fabric.AddNode("derecho")
	}
	tabs := sst.Build[row](rnodes, rowCodec{n: cfg.N})
	ringCfg := ringbuf.Config{Bytes: cfg.RingBytes, TwoWrite: true, Backlog: false}
	g.nodes = make([]*node, cfg.N)
	for i := 0; i < cfg.N; i++ {
		members := make([]int, cfg.N)
		for j := range members {
			members[j] = j
		}
		g.nodes[i] = &node{
			g: g, id: i, rn: rnodes[i], tab: tabs[i],
			members:  members,
			recv:     make([]uint64, cfg.N),
			pend:     make([][]pmsg, cfg.N),
			nd:       make([]uint64, cfg.N),
			in:       make([]*ringbuf.Receiver, cfg.N),
			lastHB:   make([]uint64, cfg.N),
			lastHBAt: make([]simnet.Time, cfg.N),
		}
		for s := range g.nodes[i].nd {
			g.nodes[i].nd[s] = 1
		}
	}
	for i, nd := range g.nodes {
		nd.out = ringbuf.NewSender(rnodes[i], ringCfg)
		for j, peer := range g.nodes {
			if i == j {
				continue
			}
			peer.in[i] = nd.out.AddPeer(rnodes[j])
		}
	}
	return g
}

// Subscribe attaches s to the protocol facts every member emits: its SST
// writes, checked for per-cell monotonicity (receipt counters, heartbeat,
// view number), and its deliveries and view installs, checked for virtual
// synchrony (view agreement, majority view change, identical delivered
// prefixes at installation). nil detaches, and leaves the SST unhooked, so
// the disabled path costs nothing. Call before Start. A view's membership
// travels as a bit set, so a subscribed group has at most 64 members.
func (g *Group) Subscribe(s trace.Subscriber) {
	if s != nil && g.Cfg.N > 64 {
		panic("derecho: a subscribed group has at most 64 members")
	}
	g.sub = s
	cells := &trace.Cells{Table: "derecho.sst", U32: []int{8*g.Cfg.N + 12}}
	for m := 0; m <= g.Cfg.N; m++ {
		cells.U64 = append(cells.U64, 8*m) // per-sender receipt counters, then the heartbeat
	}
	for _, nd := range g.nodes {
		nd.tab.Observe = nil
		if s != nil {
			nd.tab.Observe = func(_ int, row []byte) {
				trace.Emit(nil, s, &trace.Fact{Kind: trace.SSTWrite, Replica: nd.id, Node: nd.rn.ID,
					At: int64(g.Sim.Now()), Cells: cells, Row: row})
			}
		}
	}
}

// emit states one protocol fact at this member.
func (nd *node) emit(k trace.FactKind, term, index uint64, id int64) {
	trace.Emit(nd.g.Sim.Tracer(), nd.g.sub, &trace.Fact{Kind: k, Replica: nd.id, Node: nd.rn.ID,
		At: int64(nd.g.Sim.Now()), Term: term, Index: index, ID: id})
}

// deliverData delivers pm, sender s's idx-th message. Delivery at the sender
// is what acks the client.
func (nd *node) deliverData(s int, idx uint64, pm pmsg) {
	nd.sessions.Deliver(abcast.MsgID(pm.payload))
	nd.emit(trace.DeliverView.Acked(s == nd.id), uint64(s), idx, trace.ID(pm.payload))
	if nd.g.OnDeliver != nil {
		nd.g.OnDeliver(nd.id, s, idx, pm.payload)
	}
}

// Node returns member i's fabric node (for fault injection).
func (g *Group) Node(i int) *rdma.Node { return g.nodes[i].rn }

// Members returns member i's current view membership.
func (g *Group) Members(i int) []int { return append([]int(nil), g.nodes[i].members...) }

// View returns member i's current view number.
func (g *Group) View(i int) uint32 { return g.nodes[i].view }

// Start boots every member's predicate loop.
func (g *Group) Start() {
	now := g.Sim.Now()
	for _, nd := range g.nodes {
		for j := range nd.lastHBAt {
			nd.lastHBAt[j] = now
		}
		nd := nd
		nd.rn.Proc.PollLoop(g.Cfg.PollInterval, g.Cfg.PollCost, nd.poll)
	}
}

// Sender returns the node allowed to multicast next for client traffic: in
// leader mode the view leader; in all mode any member (the caller rotates).
func (g *Group) Sender(i int) int {
	nd := g.nodes[i]
	if len(nd.members) == 0 {
		return -1
	}
	return nd.members[0]
}

// Submit enqueues payload for multicast from member i (must be a live
// member; in leader mode i must be the view leader). A wedged member queues
// the payload and sends it once the next view installs, so a request is
// only ever lost when its member crashes.
func (g *Group) Submit(i int, payload []byte) {
	nd := g.nodes[i]
	if nd.rn.Crashed() {
		return
	}
	nd.sendQ = append(nd.sendQ, append([]byte(nil), payload...))
	if !nd.wedged {
		nd.trySend()
	}
}

// canMulticast reports whether the ring has room toward every live peer —
// Derecho's sender stalls whenever any member lags (slot reuse requires
// global stability).
func (nd *node) canMulticast(size int) bool {
	for _, m := range nd.members {
		if m == nd.id {
			continue
		}
		if !nd.out.CanSend(nd.g.nodes[m].rn.ID, size+1) {
			return false
		}
	}
	return true
}

func (nd *node) multicast(kind byte, payload []byte) bool {
	if !nd.canMulticast(len(payload)) {
		return false
	}
	rec := make([]byte, 1+len(payload))
	rec[0] = kind
	copy(rec[1:], payload)
	for _, m := range nd.members {
		if m == nd.id {
			continue
		}
		if _, err := nd.out.Send(nd.g.nodes[m].rn.ID, rec); err != nil {
			panic(fmt.Sprintf("derecho: send failed after CanSend: %v", err))
		}
	}
	nd.mySent++
	nd.recv[nd.id] = nd.mySent
	// Local copy for self-delivery.
	nd.pend[nd.id] = append(nd.pend[nd.id], pmsg{idx: nd.mySent, kind: kind, payload: append([]byte(nil), payload...)})
	if kind == kData {
		nd.emit(trace.Propose, uint64(nd.id), nd.mySent, trace.ID(payload))
	}
	return true
}

// trySend drains the send queue while ring capacity lasts; in all mode it
// also emits nulls to keep the rotation advancing when peers are ahead.
func (nd *node) trySend() {
	if nd.wedged || nd.rn.Crashed() {
		return
	}
	if nd.g.Cfg.Mode == LeaderMode && (len(nd.members) == 0 || nd.members[0] != nd.id) {
		return
	}
	for len(nd.sendQ) > 0 {
		if !nd.multicast(kData, nd.sendQ[0]) {
			return
		}
		nd.sendQ = nd.sendQ[1:]
	}
	if nd.g.Cfg.Mode == AllMode {
		// Null padding: match the most advanced sender so its messages
		// can reach their round-robin delivery slot.
		target := uint64(0)
		for _, m := range nd.members {
			if nd.recv[m] > target {
				target = nd.recv[m]
			}
		}
		for nd.mySent < target {
			if !nd.multicast(kNull, nil) {
				return
			}
		}
	}
}

// poll is one predicate-evaluation iteration.
func (nd *node) poll() {
	nd.rowCache = nd.tab.Snapshot(nd.rowCache)
	nd.drain()
	nd.trySend()
	nd.deliver()
	nd.release()
	nd.pushRow()
	nd.failureCheck()
	nd.tryInstallView()
}

func (nd *node) drain() {
	for s := range nd.in {
		if nd.in[s] == nil {
			continue
		}
		recs := nd.in[s].Poll(0)
		for _, rec := range recs {
			nd.rn.Proc.Charge(nd.g.Cfg.PerMsgCost)
			kind := rec[0]
			payload := rec[1:]
			if kind == kView {
				nd.onViewMsg(payload)
				// View messages occupy a stream slot so receipt
				// counters still match ring indices.
				nd.recv[s]++
				nd.pend[s] = append(nd.pend[s], pmsg{idx: nd.recv[s], kind: kView})
				continue
			}
			nd.recv[s]++
			pm := pmsg{idx: nd.recv[s], kind: kind}
			if kind == kData {
				// Copy: the sender frees this slot once every member has
				// received the message (release), which can be before this
				// node delivers it.
				pm.payload = append([]byte(nil), payload...)
				nd.emit(trace.Accept, uint64(s), pm.idx, trace.ID(payload))
			}
			nd.pend[s] = append(nd.pend[s], pm)
		}
	}
}

// stable reports whether every live member has received message idx of
// sender s, according to the local SST snapshot.
func (nd *node) stable(s int, idx uint64) bool {
	for _, m := range nd.members {
		var have uint64
		if m == nd.id {
			have = nd.recv[s]
		} else {
			have = nd.rowCache[m].recv[s]
		}
		if have < idx {
			return false
		}
	}
	return true
}

// rotation returns the senders in delivery order for the current view.
func (nd *node) rotation() []int {
	if nd.g.Cfg.Mode == LeaderMode {
		if len(nd.members) == 0 {
			return nil
		}
		return nd.members[:1]
	}
	return nd.members
}

// deliver advances the round-robin delivery frontier as far as stability
// allows.
func (nd *node) deliver() {
	rot := nd.rotation()
	if len(rot) == 0 {
		return
	}
	for {
		if nd.rotPos >= len(rot) {
			nd.rotPos = 0
		}
		s := rot[nd.rotPos]
		idx := nd.nd[s]
		if len(nd.pend[s]) == 0 || nd.pend[s][0].idx != idx || !nd.stable(s, idx) {
			return
		}
		pm := nd.pend[s][0]
		nd.pend[s] = nd.pend[s][1:]
		nd.nd[s] = idx + 1
		nd.rotPos++
		if pm.kind == kData {
			nd.rn.Proc.Charge(nd.g.Cfg.PerMsgCost)
			nd.deliverData(s, idx, pm)
		}
	}
}

// release recycles ring slots for messages received by every live member.
func (nd *node) release() {
	low := nd.recv[nd.id]
	for _, m := range nd.members {
		if m == nd.id {
			continue
		}
		if v := nd.rowCache[m].recv[nd.id]; v < low {
			low = v
		}
	}
	for _, m := range nd.members {
		if m != nd.id {
			nd.out.Release(nd.g.nodes[m].rn.ID, low)
		}
	}
}

func (nd *node) pushRow() {
	now := nd.g.Sim.Now()
	if now.Sub(nd.lastPush) < nd.g.Cfg.SSTPushInterval {
		return
	}
	nd.lastPush = now
	nd.hb++
	nd.tab.Set(row{recv: nd.recv, hb: nd.hb, wedged: nd.wedged, view: nd.view})
	nd.tab.PushMine()
}

// failureCheck wedges the node when a member's heartbeat goes stale.
func (nd *node) failureCheck() {
	now := nd.g.Sim.Now()
	stale := false
	for _, m := range nd.members {
		if m == nd.id {
			continue
		}
		r := nd.rowCache[m]
		if r.hb != nd.lastHB[m] {
			nd.lastHB[m] = r.hb
			nd.lastHBAt[m] = now
		} else if now.Sub(nd.lastHBAt[m]) > nd.g.Cfg.FailTimeout {
			stale = true
		}
	}
	if stale && !nd.wedged {
		nd.wedged = true
		nd.emit(trace.Suspect, uint64(nd.view), 0, 0)
		nd.pushRow()
	}
}

// tryInstallView runs at the lowest-ranked live unwedged-leader candidate:
// once every surviving member is wedged, compute the ragged trim and
// announce the next view.
func (nd *node) tryInstallView() {
	if !nd.wedged {
		return
	}
	now := nd.g.Sim.Now()
	// Survivors: members whose heartbeat is fresh.
	var live []int
	for _, m := range nd.members {
		if m == nd.id || now.Sub(nd.lastHBAt[m]) <= nd.g.Cfg.FailTimeout {
			live = append(live, m)
		}
	}
	// Partitioning rule: the next view must contain a majority of the
	// current one, otherwise a full-mesh partition would let each isolated
	// fragment trim and deliver its own divergent order (split brain). A
	// minority fragment stays wedged instead; if the links later heal (a
	// partition, not a crash), heartbeats revive the full membership and
	// the view change proceeds with everyone aboard.
	if len(live) <= len(nd.members)/2 {
		return
	}
	if live[0] != nd.id {
		return // not the view-change leader
	}
	for _, m := range live {
		if m == nd.id {
			continue
		}
		r := nd.rowCache[m]
		if !r.wedged || r.view != nd.view {
			return // wait for everyone to wedge in this view
		}
	}
	// Ragged trim: per sender, the minimum receipt count across survivors.
	trim := make([]uint64, nd.g.Cfg.N)
	for s := 0; s < nd.g.Cfg.N; s++ {
		low := nd.recv[s]
		for _, m := range live {
			if m == nd.id {
				continue
			}
			if v := nd.rowCache[m].recv[s]; v < low {
				low = v
			}
		}
		trim[s] = low
	}
	// Announce: [view u32][nMembers u32][members...u32][trim...u64]
	buf := make([]byte, 8+4*len(live)+8*nd.g.Cfg.N)
	binary.LittleEndian.PutUint32(buf, nd.view+1)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(live)))
	off := 8
	for _, m := range live {
		binary.LittleEndian.PutUint32(buf[off:], uint32(m))
		off += 4
	}
	for _, t := range trim {
		binary.LittleEndian.PutUint64(buf[off:], t)
		off += 8
	}
	rec := make([]byte, 1+len(buf))
	rec[0] = kView
	copy(rec[1:], buf)
	for _, m := range live {
		if m == nd.id {
			continue
		}
		if _, err := nd.out.Send(nd.g.nodes[m].rn.ID, rec); err != nil && err != ringbuf.ErrRingFull {
			panic("derecho: view send failed: " + err.Error())
		}
	}
	nd.mySent++
	nd.recv[nd.id] = nd.mySent
	nd.pend[nd.id] = append(nd.pend[nd.id], pmsg{idx: nd.mySent, kind: kView})
	nd.installView(nd.view+1, live, trim)
}

func (nd *node) onViewMsg(buf []byte) {
	view := binary.LittleEndian.Uint32(buf)
	if view <= nd.view {
		return
	}
	nm := int(binary.LittleEndian.Uint32(buf[4:]))
	members := make([]int, nm)
	off := 8
	for i := range members {
		members[i] = int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	trim := make([]uint64, nd.g.Cfg.N)
	for s := range trim {
		trim[s] = binary.LittleEndian.Uint64(buf[off:])
		off += 8
	}
	nd.installView(view, members, trim)
}

// installView delivers exactly the ragged trim in the old rotation order,
// discards undeliverable suffixes, and resumes in the new membership.
func (nd *node) installView(view uint32, members []int, trim []uint64) {
	// Deliver the agreed prefix: old rotation order, per-sender cap =
	// trim. Every message at or below the trim has already been received
	// locally (the trim is a minimum over survivors, us included), so this
	// loop always terminates.
	rot := nd.rotation()
	for {
		allDone := true
		for _, s := range rot {
			if nd.nd[s] <= trim[s] {
				allDone = false
			}
		}
		if allDone {
			break
		}
		if nd.rotPos >= len(rot) {
			nd.rotPos = 0
		}
		s := rot[nd.rotPos]
		idx := nd.nd[s]
		if idx > trim[s] {
			nd.rotPos++ // this sender is exhausted; ragged edge
			continue
		}
		pm := nd.pend[s][0]
		nd.pend[s] = nd.pend[s][1:]
		nd.nd[s] = idx + 1
		nd.rotPos++
		if pm.kind == kData {
			nd.deliverData(s, idx, pm)
		}
	}
	// Discard beyond-trim messages from senders outside the new view; a
	// virtual-synchrony reconfiguration drops them (clients retry).
	for s := 0; s < nd.g.Cfg.N; s++ {
		alive := false
		for _, m := range members {
			if m == s {
				alive = true
			}
		}
		if !alive {
			nd.pend[s] = nil
			nd.nd[s] = trim[s] + 1
		}
	}
	nd.view = view
	nd.members = members
	nd.wedged = false
	nd.rotPos = 0
	var set uint64
	for _, m := range members {
		set |= 1 << m
	}
	nd.emit(trace.Install, uint64(view), set, 0)
	nd.pushRow()
	if nd.g.OnViewChange != nil {
		nd.g.OnViewChange(nd.id, view, members)
	}
	nd.trySend()
}
