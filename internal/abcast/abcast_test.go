package abcast

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"acuerdo/internal/digest"
	"acuerdo/internal/simnet"
)

func TestMsgIDRoundTrip(t *testing.T) {
	f := func(id uint64) bool {
		p := make([]byte, 16)
		PutMsgID(p, id)
		return MsgID(p) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if MsgID([]byte{1, 2}) != 0 {
		t.Fatal("short payload should yield 0")
	}
}

func TestCheckerIntegrity(t *testing.T) {
	c := NewChecker(2)
	if err := c.OnDeliver(0, 7); err == nil {
		t.Fatal("out-of-thin-air delivery accepted")
	}
	c.OnBroadcast(7)
	if err := c.OnDeliver(0, 7); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerNoDuplication(t *testing.T) {
	c := NewChecker(2)
	c.OnBroadcast(1)
	if err := c.OnDeliver(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.OnDeliver(0, 1); err == nil {
		t.Fatal("duplicate accepted")
	}
	// Same message at a different node is fine.
	if err := c.OnDeliver(1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerTotalOrder(t *testing.T) {
	c := NewChecker(3)
	for i := uint64(1); i <= 3; i++ {
		c.OnBroadcast(i)
	}
	for _, id := range []uint64{1, 2, 3} {
		c.OnDeliver(0, id)
	}
	for _, id := range []uint64{1, 2} {
		c.OnDeliver(1, id)
	}
	// node 2 delivered nothing: still a valid prefix.
	if err := c.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	if c.MinDelivered() != 0 {
		t.Fatalf("min = %d", c.MinDelivered())
	}
	// Divergent order at node 2.
	c.OnDeliver(2, 2)
	if err := c.CheckTotalOrder(); err == nil {
		t.Fatal("divergent order accepted")
	}
}

func TestCheckerAgreement(t *testing.T) {
	c := NewChecker(3)
	for i := uint64(1); i <= 4; i++ {
		c.OnBroadcast(i)
	}
	for _, id := range []uint64{1, 2, 3, 4} {
		c.OnDeliver(0, id)
	}
	for _, id := range []uint64{1, 2, 3} {
		c.OnDeliver(1, id)
	}
	for _, id := range []uint64{1, 2} {
		c.OnDeliver(2, id)
	}
	// Committed prefix is 2 (the shortest sequence); everything up to it
	// agrees everywhere.
	if err := c.Agreement(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Agreement(2); err != nil {
		t.Fatal(err)
	}
	// Requiring more than the committed prefix is a liveness failure.
	if err := c.Agreement(3); err == nil {
		t.Fatal("prefix of 2 satisfied a floor of 3")
	}
	if err := c.Agreement(-1); err == nil {
		t.Fatal("negative floor accepted")
	}
}

func TestCheckerAgreementDivergence(t *testing.T) {
	c := NewChecker(2)
	for i := uint64(1); i <= 2; i++ {
		c.OnBroadcast(i)
	}
	// Both replicas commit two messages, but in different orders: the
	// committed prefix itself disagrees.
	c.OnDeliver(0, 1)
	c.OnDeliver(0, 2)
	c.OnDeliver(1, 2)
	c.OnDeliver(1, 1)
	if err := c.Agreement(0); err == nil {
		t.Fatal("divergent committed prefix accepted")
	}
}

func TestCheckerAgreementEmpty(t *testing.T) {
	// No replicas tracked: vacuously satisfied at floor 0.
	c := NewChecker(0)
	if err := c.Agreement(0); err != nil {
		t.Fatal(err)
	}
	// But a positive floor cannot be met by an empty cluster.
	if err := c.Agreement(1); err == nil {
		t.Fatal("empty cluster satisfied a positive floor")
	}
}

func TestCheckerPrefixProperty(t *testing.T) {
	// Property: if all nodes deliver prefixes of one sequence, the check
	// passes; flipping any two adjacent distinct elements at one node
	// fails it.
	f := func(seed int64, cut1, cut2 uint8) bool {
		c := NewChecker(3)
		seq := make([]uint64, 20)
		for i := range seq {
			seq[i] = uint64(i + 1)
			c.OnBroadcast(seq[i])
		}
		cuts := []int{20, int(cut1) % 21, int(cut2) % 21}
		for n := 0; n < 3; n++ {
			for _, id := range seq[:cuts[n]] {
				c.OnDeliver(n, id)
			}
		}
		return c.CheckTotalOrder() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// fakeSystem commits after a fixed latency, with a concurrency cap to give
// a saturating throughput curve.
type fakeSystem struct {
	sim     *simnet.Sim
	lat     time.Duration
	cap     int
	busy    int
	queue   []func()
	submits int
}

func (f *fakeSystem) Name() string { return "fake" }
func (f *fakeSystem) Ready() bool  { return true }
func (f *fakeSystem) Submit(p []byte, done func()) {
	f.submits++
	start := func(d func()) {
		f.busy++
		f.sim.After(f.lat, func() {
			f.busy--
			if len(f.queue) > 0 {
				next := f.queue[0]
				f.queue = f.queue[1:]
				next()
			}
			d()
		})
	}
	if f.busy < f.cap {
		start(done)
	} else {
		f.queue = append(f.queue, func() { start(done) })
	}
}

func TestRunClosedLoopWindowAndLatency(t *testing.T) {
	sim := simnet.New(1)
	fs := &fakeSystem{sim: sim, lat: 10 * time.Microsecond, cap: 1 << 30}
	res := RunClosedLoop(sim, fs, LoadConfig{
		Window: 4, MsgSize: 10,
		Warmup: time.Millisecond, Measure: 10 * time.Millisecond,
	})
	// Each slot completes every 10us: 4 slots over 10ms = ~4000 commits.
	if res.Committed < 3900 || res.Committed > 4100 {
		t.Fatalf("committed = %d, want ~4000", res.Committed)
	}
	if m := res.Latency.Mean(); m != 10*time.Microsecond {
		t.Fatalf("latency = %v", m)
	}
	if res.MsgsPerSec < 390000 || res.MsgsPerSec > 410000 {
		t.Fatalf("throughput = %.0f", res.MsgsPerSec)
	}
}

func TestRunClosedLoopSaturation(t *testing.T) {
	// With a server concurrency cap of 2, doubling the window past 2 must
	// not increase throughput (the "knee").
	sim := simnet.New(1)
	fs := &fakeSystem{sim: sim, lat: 10 * time.Microsecond, cap: 2}
	r2 := RunClosedLoop(sim, fs, LoadConfig{Window: 2, MsgSize: 10, Warmup: time.Millisecond, Measure: 10 * time.Millisecond})
	sim2 := simnet.New(1)
	fs2 := &fakeSystem{sim: sim2, lat: 10 * time.Microsecond, cap: 2}
	r8 := RunClosedLoop(sim2, fs2, LoadConfig{Window: 8, MsgSize: 10, Warmup: time.Millisecond, Measure: 10 * time.Millisecond})
	if r8.MsgsPerSec > r2.MsgsPerSec*1.1 {
		t.Fatalf("throughput grew past saturation: %.0f -> %.0f", r2.MsgsPerSec, r8.MsgsPerSec)
	}
	if r8.Latency.Mean() < 3*r2.Latency.Mean() {
		t.Fatalf("latency did not spike past the knee: %v -> %v", r2.Latency.Mean(), r8.Latency.Mean())
	}
}

func TestRunClosedLoopOnSubmitHook(t *testing.T) {
	sim := simnet.New(1)
	fs := &fakeSystem{sim: sim, lat: 3 * time.Microsecond, cap: 1 << 30}
	var ids []uint64
	res := RunClosedLoop(sim, fs, LoadConfig{
		Window: 4, MsgSize: 16,
		Warmup: 100 * time.Microsecond, Measure: 2 * time.Millisecond,
		OnSubmit: func(id uint64) { ids = append(ids, id) },
	})
	if len(ids) == 0 {
		t.Fatal("OnSubmit never fired")
	}
	if len(ids) < res.Committed {
		t.Fatalf("observed %d submissions but %d commits", len(ids), res.Committed)
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("ids[%d] = %d, want %d", i, id, i+1)
		}
	}
}

// gate is a System whose readiness the test flips; it acknowledges nothing
// itself, so the test fires each request's acknowledgment by hand.
type gate struct{ ready bool }

func (g *gate) Name() string          { return "gate" }
func (g *gate) Ready() bool           { return g.ready }
func (g *gate) Submit([]byte, func()) {}

// TestLoop pins the load regulator's contract: exactly window requests
// outstanding, ids 1, 2, 3, …, nothing issued while the system is not Ready,
// and resumption on the 50 µs readiness poll.
func TestLoop(t *testing.T) {
	const window = 3
	sim := simnet.New(1)
	g := &gate{}
	var (
		ids  []uint64
		at   []simnet.Time
		acks []func()
	)
	Loop(sim, g, window, func(id uint64, next func()) {
		ids = append(ids, id)
		at = append(at, sim.Now())
		acks = append(acks, next)
	})
	sim.RunFor(120 * time.Microsecond)
	if len(ids) != 0 {
		t.Fatalf("issued %v while the system was not Ready", ids)
	}
	// Ready from t=120us: the polls at 50 and 100 found nothing, the one at
	// 150 issues the whole window, and with no ack nothing follows.
	g.ready = true
	sim.RunFor(time.Millisecond)
	if len(ids) != window {
		t.Fatalf("%d requests outstanding with no ack, want the window of %d", len(ids), window)
	}
	for i := range ids {
		if want := simnet.Time(150 * time.Microsecond); at[i] != want {
			t.Fatalf("request %d issued at %v, want the %v poll", ids[i], at[i], want)
		}
	}
	// One ack, one more request, at once.
	acks[1]()
	if len(ids) != window+1 {
		t.Fatalf("one ack issued %d requests, want 1", len(ids)-window)
	}
	// Acks that land while there is no leader hold their slots until a poll
	// finds the system Ready again.
	g.ready = false
	acks[0]()
	acks[2]()
	sim.RunFor(70 * time.Microsecond)
	if len(ids) != window+1 {
		t.Fatalf("issued request %d while the system was not Ready", ids[len(ids)-1])
	}
	g.ready = true
	sim.RunFor(50 * time.Microsecond)
	if len(ids) != window+3 {
		t.Fatalf("%d requests after the held slots resumed, want %d", len(ids), window+3)
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("ids = %v, want 1, 2, 3, …", ids)
		}
	}
}

// flaky acknowledges every request one microsecond later and reports not
// Ready on every fourth question, so both of Loop's paths run.
type flaky struct {
	sim   *simnet.Sim
	asked int
}

func (f *flaky) Name() string { return "flaky" }
func (f *flaky) Ready() bool {
	f.asked++
	return f.asked%4 != 0
}
func (f *flaky) Submit(_ []byte, done func()) { f.sim.After(time.Microsecond, done) }

// TestLoopAllocFree pins Loop's own per-request work — the next closure, the
// id counter, the readiness poll — at zero heap objects: it sits on the
// per-operation path of every load-driven experiment.
func TestLoopAllocFree(t *testing.T) {
	sim := simnet.New(1)
	f := &flaky{sim: sim}
	var last uint64
	Loop(sim, f, 8, func(id uint64, next func()) {
		last = id
		f.Submit(nil, next)
	})
	sim.RunFor(time.Millisecond) // grow the event queue to its steady size
	before := last
	if n := testing.AllocsPerRun(50, func() { sim.RunFor(100 * time.Microsecond) }); n != 0 {
		t.Fatalf("Loop allocates %.1f objects per 100us of load, want 0", n)
	}
	if last == before {
		t.Fatal("the measured stretch issued nothing")
	}
}

// TestCheckerLatch pins the run verdict: Err returns the first OnDeliver
// violation however many clean deliveries follow it, falls back to the
// total-order check, and Fingerprint tells two runs apart when one
// replica's sequence differs.
func TestCheckerLatch(t *testing.T) {
	run := func(node1 []uint64) *Checker {
		c := NewChecker(2)
		for id := uint64(1); id <= 3; id++ {
			c.OnBroadcast(id)
			c.OnDeliver(0, id)
		}
		for _, id := range node1 {
			c.OnDeliver(1, id)
		}
		return c
	}
	clean := run([]uint64{1, 2, 3})
	if err := clean.Err(); err != nil {
		t.Fatalf("clean run: %v", err)
	}

	forged := run([]uint64{1, 99, 2, 2, 3})
	err := forged.Err()
	if err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("Err() = %v, want the first violation (integrity, id 99), not a later one", err)
	}
	if forged.CheckTotalOrder() != nil {
		t.Fatal("the forged delivery was recorded in the sequence")
	}

	swapped := run([]uint64{2, 1})
	if err := swapped.Err(); err == nil || !strings.Contains(err.Error(), "total order") {
		t.Fatalf("Err() = %v, want the total-order fallback", err)
	}

	if clean.Fingerprint() != run([]uint64{1, 2, 3}).Fingerprint() {
		t.Fatal("equal runs fingerprint differently")
	}
	short := run([]uint64{1, 2})
	if clean.Fingerprint() == short.Fingerprint() {
		t.Fatal("Fingerprint missed a replica whose sequence differs")
	}
	if clean.ReplicaFingerprint(0) != short.ReplicaFingerprint(0) || clean.ReplicaFingerprint(1) == short.ReplicaFingerprint(1) {
		t.Fatal("ReplicaFingerprint does not isolate the replica that differs")
	}
}

// TestCheckerRestartReplay pins the replay-window semantics: after
// NodeRestart, a node may contiguously retrace its recorded delivery
// sequence; fresh messages are accepted once the retrace completes.
func TestCheckerRestartReplay(t *testing.T) {
	c := NewChecker(2)
	for id := uint64(1); id <= 4; id++ {
		c.OnBroadcast(id)
		if err := c.OnDeliver(0, id); err != nil {
			t.Fatal(err)
		}
	}
	c.NodeRestart(0)
	for id := uint64(1); id <= 4; id++ { // full retrace, in order
		if err := c.OnDeliver(0, id); err != nil {
			t.Fatalf("replay of %d: %v", id, err)
		}
	}
	c.OnBroadcast(5)
	if err := c.OnDeliver(0, 5); err != nil {
		t.Fatalf("fresh delivery after retrace: %v", err)
	}
	// The window is closed: a re-delivery is a duplicate again.
	if err := c.OnDeliver(0, 3); err == nil {
		t.Fatal("duplicate accepted after replay window closed")
	}
	if got := c.Delivered(0); len(got) != 5 {
		t.Fatalf("delivered sequence grew to %d entries during replay, want 5", len(got))
	}
}

// TestCheckerRestartReplayMidStream: a retrace may begin past position zero
// (snapshot recovery replays only the WAL tail).
func TestCheckerRestartReplayMidStream(t *testing.T) {
	c := NewChecker(1)
	for id := uint64(1); id <= 4; id++ {
		c.OnBroadcast(id)
		if err := c.OnDeliver(0, id); err != nil {
			t.Fatal(err)
		}
	}
	c.NodeRestart(0)
	for id := uint64(3); id <= 4; id++ {
		if err := c.OnDeliver(0, id); err != nil {
			t.Fatalf("mid-stream replay of %d: %v", id, err)
		}
	}
	c.OnBroadcast(5)
	if err := c.OnDeliver(0, 5); err != nil {
		t.Fatalf("fresh delivery after mid-stream retrace: %v", err)
	}
}

// TestCheckerRestartReplayViolations: out-of-order retraces and fresh
// messages mid-retrace are still duplication violations.
func TestCheckerRestartReplayOutOfOrder(t *testing.T) {
	c := NewChecker(1)
	for id := uint64(1); id <= 3; id++ {
		c.OnBroadcast(id)
		if err := c.OnDeliver(0, id); err != nil {
			t.Fatal(err)
		}
	}
	c.NodeRestart(0)
	if err := c.OnDeliver(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.OnDeliver(0, 3); err == nil {
		t.Fatal("out-of-order retrace accepted (1 then 3)")
	}

	c = NewChecker(1)
	for id := uint64(1); id <= 3; id++ {
		c.OnBroadcast(id)
		if err := c.OnDeliver(0, id); err != nil {
			t.Fatal(err)
		}
	}
	c.OnBroadcast(9)
	c.NodeRestart(0)
	if err := c.OnDeliver(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.OnDeliver(0, 9); err == nil {
		t.Fatal("fresh message accepted mid-retrace")
	}
}

// TestCheckerRestartNoReplay: a restarted node whose first delivery is
// fresh (it recovered everything, or had delivered nothing) closes the
// window immediately.
func TestCheckerRestartNoReplay(t *testing.T) {
	c := NewChecker(1)
	c.OnBroadcast(1)
	if err := c.OnDeliver(0, 1); err != nil {
		t.Fatal(err)
	}
	c.NodeRestart(0)
	c.OnBroadcast(2)
	if err := c.OnDeliver(0, 2); err != nil {
		t.Fatalf("fresh first delivery after restart: %v", err)
	}
	if err := c.OnDeliver(0, 1); err == nil {
		t.Fatal("re-delivery accepted after the window closed on a fresh message")
	}
}

// ---------------------------------------------------------------------------
// Reference implementation: the checker as it stood before its state became
// the agreed order — a broadcast set, and per replica a delivery sequence, a
// seen set and a position index, with Total Order decided by scanning every
// sequence against the longest at the end of the run. Kept as an executable
// specification of the verdicts and fingerprints Checker must reproduce.
// ---------------------------------------------------------------------------

type refChecker struct {
	broadcast  map[uint64]bool
	delivered  [][]uint64
	seen       []map[uint64]bool
	pos        []map[uint64]int
	replayNext []int
	err        error
}

func newRefChecker(n int) *refChecker {
	c := &refChecker{
		broadcast:  make(map[uint64]bool),
		delivered:  make([][]uint64, n),
		seen:       make([]map[uint64]bool, n),
		pos:        make([]map[uint64]int, n),
		replayNext: make([]int, n),
	}
	for i := range c.seen {
		c.seen[i] = make(map[uint64]bool)
		c.pos[i] = make(map[uint64]int)
		c.replayNext[i] = noReplay
	}
	return c
}

func (c *refChecker) OnBroadcast(id uint64) { c.broadcast[id] = true }
func (c *refChecker) NodeRestart(node int)  { c.replayNext[node] = replayStart }

func (c *refChecker) OnDeliver(node int, id uint64) error {
	if !c.broadcast[id] {
		return c.latch(fmt.Errorf("integrity violated: node %d delivered %d which was never broadcast", node, id))
	}
	if c.seen[node][id] {
		if c.replayNext[node] == noReplay {
			return c.latch(fmt.Errorf("no-duplication violated: node %d delivered %d twice", node, id))
		}
		p := c.pos[node][id]
		if c.replayNext[node] == replayStart {
			c.replayNext[node] = p
		}
		if p != c.replayNext[node] {
			return c.latch(fmt.Errorf("no-duplication violated: node %d re-delivered %d at position %d after restart, expected contiguous replay at position %d",
				node, id, p, c.replayNext[node]))
		}
		c.replayNext[node]++
		if c.replayNext[node] == len(c.delivered[node]) {
			c.replayNext[node] = noReplay
		}
		return nil
	}
	if c.replayNext[node] != noReplay {
		if c.replayNext[node] != replayStart {
			return c.latch(fmt.Errorf("no-duplication violated: node %d delivered fresh message %d mid-replay (retrace at %d of %d)",
				node, id, c.replayNext[node], len(c.delivered[node])))
		}
		c.replayNext[node] = noReplay
	}
	c.seen[node][id] = true
	c.pos[node][id] = len(c.delivered[node])
	c.delivered[node] = append(c.delivered[node], id)
	return nil
}

func (c *refChecker) latch(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}

func (c *refChecker) Err() error {
	if c.err != nil {
		return c.err
	}
	return c.CheckTotalOrder()
}

func (c *refChecker) Delivered(node int) []uint64 { return c.delivered[node] }

func (c *refChecker) fold(d digest.Sum, node int) digest.Sum {
	d = d.Uint64(uint64(len(c.delivered[node])))
	for _, id := range c.delivered[node] {
		d = d.Uint64(id)
	}
	return d
}

func (c *refChecker) Fingerprint() digest.Sum {
	d := digest.Offset
	for node := range c.delivered {
		d = c.fold(d, node)
	}
	return d
}

func (c *refChecker) ReplicaFingerprint(node int) digest.Sum { return c.fold(digest.Offset, node) }

func (c *refChecker) CheckTotalOrder() error {
	longest := 0
	for i, d := range c.delivered {
		if len(d) > len(c.delivered[longest]) {
			longest = i
		}
	}
	ref := c.delivered[longest]
	for i, d := range c.delivered {
		for k, id := range d {
			if ref[k] != id {
				return fmt.Errorf("total order violated: node %d delivered %d at position %d, node %d delivered %d",
					i, id, k, longest, ref[k])
			}
		}
	}
	return nil
}

func (c *refChecker) MinDelivered() int {
	min := len(c.delivered[0])
	for _, d := range c.delivered[1:] {
		if len(d) < min {
			min = len(d)
		}
	}
	return min
}

// violationClass is the property an error names: the text before " violated".
func violationClass(err error) string {
	if err == nil {
		return ""
	}
	class, _, _ := strings.Cut(err.Error(), " violated")
	return class
}

// TestCheckerDifferential runs seeded programs — broadcasts, in-order
// deliveries at replicas that lag one another, restarts with a full, a
// mid-stream or no replay, and in five of every six one injected fault —
// through Checker and the reference. Every delivery gets the same accept/refuse
// answer except the two the reference cannot decide at the event: a swapped
// or skipped delivery, which Checker must refuse at that call, naming node,
// position and both ids, where the reference only finds it in Err's final
// scan. Clean programs must agree on every fingerprint, sequence and length;
// faulty ones on the class of violation Err reports.
func TestCheckerDifferential(t *testing.T) {
	const replicas = 3
	faults := []string{"", "forged", "duplicate", "swap", "skip", "fresh-mid-replay"}
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fault := faults[int(seed)%len(faults)]
		got, want := NewChecker(replicas), newRefChecker(replicas)

		var (
			order   []uint64 // the sequence the program's replicas agree on
			pending []uint64 // broadcast, not yet in order
			nextID  uint64
			at      [replicas]int // replica r has delivered order[:at[r]]
		)
		broadcast := func() {
			nextID++
			pending = append(pending, nextID)
			got.OnBroadcast(nextID)
			want.OnBroadcast(nextID)
		}
		// deliver feeds one delivery to both checkers and returns their answers.
		deliver := func(r int, id uint64) (g, w error) {
			return got.OnDeliver(r, id), want.OnDeliver(r, id)
		}
		// clean feeds a delivery both checkers must accept.
		clean := func(r int, id uint64) {
			t.Helper()
			if g, w := deliver(r, id); g != nil || w != nil {
				t.Fatalf("seed %d (%s): clean delivery of %d at node %d refused: got %v, reference %v", seed, fault, id, r, g, w)
			}
		}
		// advance delivers replica r's next message, extending the agreed
		// order from the pending broadcasts when r is at the frontier.
		advance := func(r int) {
			t.Helper()
			if at[r] == len(order) {
				if len(pending) == 0 {
					broadcast()
				}
				k := rng.Intn(len(pending))
				order = append(order, pending[k])
				pending = append(pending[:k], pending[k+1:]...)
			}
			clean(r, order[at[r]])
			at[r]++
		}
		restart := func(r int) {
			t.Helper()
			got.NodeRestart(r)
			want.NodeRestart(r)
			from := at[r] // no replay at all
			switch rng.Intn(3) {
			case 0:
				from = 0 // full replay
			case 1:
				from = rng.Intn(at[r] + 1) // the WAL tail only
			}
			for _, id := range order[from:at[r]] {
				clean(r, id)
			}
		}
		step := func(except int) {
			t.Helper()
			r := rng.Intn(replicas)
			if r == except {
				return
			}
			switch p := rng.Intn(100); {
			case p < 25:
				broadcast()
			case p < 95:
				advance(r)
			default:
				restart(r)
			}
		}

		for op := 0; op < 300; op++ {
			step(-1)
		}

		victim := -1
		if fault != "" {
			// The victim lags the frontier by at least two and has delivered
			// at least two: every fault below has room to happen.
			victim = rng.Intn(replicas)
			lead := (victim + 1) % replicas
			for at[victim] < 2 {
				advance(victim)
			}
			if got.replayNext[victim] != noReplay {
				advance(victim) // close a no-replay restart window
			}
			for at[lead] < at[victim]+2 {
				advance(lead)
			}
			n := at[victim]
			var g, w error
			atEvent := true // does the reference decide it at the call too?
			switch fault {
			case "forged":
				g, w = deliver(victim, nextID+1000)
			case "duplicate":
				g, w = deliver(victim, order[rng.Intn(n)])
			case "swap":
				atEvent = false
				g, w = deliver(victim, order[n+1])
				clean(victim, order[n]) // the other half lands where it belongs
			case "skip":
				atEvent = false
				g, w = deliver(victim, order[n+1])
			case "fresh-mid-replay":
				got.NodeRestart(victim)
				want.NodeRestart(victim)
				clean(victim, order[0])
				g, w = deliver(victim, order[n])
			}
			if g == nil {
				t.Fatalf("seed %d (%s): OnDeliver accepted the faulty delivery at node %d position %d", seed, fault, victim, n)
			}
			if atEvent != (w != nil) {
				t.Fatalf("seed %d (%s): reference OnDeliver = %v, decided at the event: want %v", seed, fault, w, atEvent)
			}
			if atEvent && g.Error() != w.Error() {
				t.Fatalf("seed %d (%s): OnDeliver = %q, reference %q", seed, fault, g, w)
			}
			if !atEvent {
				text := fmt.Sprintf("total order violated: node %d delivered %d at position %d, the agreed order has %d there",
					victim, order[n+1], n, order[n])
				if g.Error() != text {
					t.Fatalf("seed %d (%s): OnDeliver = %q, want %q", seed, fault, g, text)
				}
				if got.CheckTotalOrder() != g {
					t.Fatalf("seed %d (%s): CheckTotalOrder = %v, want the refused delivery's error", seed, fault, got.CheckTotalOrder())
				}
			}
			// The verdict is latched: clean deliveries elsewhere do not move it.
			for op := 0; op < 50; op++ {
				step(victim)
			}
			if got.Err() != g {
				t.Fatalf("seed %d (%s): Err = %v, want the first violation %v", seed, fault, got.Err(), g)
			}
		}

		if g, w := violationClass(got.Err()), violationClass(want.Err()); g != w {
			t.Fatalf("seed %d (%s): Err class %q (%v), reference %q (%v)", seed, fault, g, got.Err(), w, want.Err())
		}
		if fault != "" {
			continue // a refused delivery is not recorded; the reference records it
		}
		if got.Err() != nil {
			t.Fatalf("seed %d: clean program: %v", seed, got.Err())
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("seed %d: Fingerprint %s, reference %s", seed, got.Fingerprint().Hex(), want.Fingerprint().Hex())
		}
		if got.MinDelivered() != want.MinDelivered() {
			t.Fatalf("seed %d: MinDelivered %d, reference %d", seed, got.MinDelivered(), want.MinDelivered())
		}
		for r := 0; r < replicas; r++ {
			if got.ReplicaFingerprint(r) != want.ReplicaFingerprint(r) {
				t.Fatalf("seed %d: replica %d fingerprint %s, reference %s", seed, r, got.ReplicaFingerprint(r).Hex(), want.ReplicaFingerprint(r).Hex())
			}
			if !slices.Equal(got.Delivered(r), want.Delivered(r)) {
				t.Fatalf("seed %d: replica %d delivered %v, reference %v", seed, r, got.Delivered(r), want.Delivered(r))
			}
		}
	}
}
