package acuerdo

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/disk"
	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

func newTestCluster(t *testing.T, n int, seed int64) (*simnet.Sim, *Cluster, *abcast.Checker) {
	t.Helper()
	sim := simnet.New(seed)
	fabric := rdma.NewFabric(sim, rdma.DefaultParams())
	c := NewCluster(sim, fabric, DefaultClusterConfig(n))
	chk := abcast.NewChecker(n)
	c.OnDeliver = func(replica int, hdr MsgHdr, payload []byte) {
		if err := chk.OnDeliver(replica, abcast.MsgID(payload)); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	return sim, c, chk
}

func TestStartupElectsLeader(t *testing.T) {
	sim, c, _ := newTestCluster(t, 3, 1)
	sim.RunFor(20 * time.Millisecond)
	if c.LeaderIdx() < 0 {
		t.Fatal("no leader elected at startup")
	}
	// Exactly one leader.
	leaders := 0
	for _, r := range c.Replicas {
		if r.IsLeader() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d", leaders)
	}
	// Followers joined the leader's epoch.
	e := c.Leader().Epoch()
	for i, r := range c.Replicas {
		if r.Epoch() != e {
			t.Fatalf("replica %d in epoch %v, leader in %v", i, r.Epoch(), e)
		}
	}
}

func TestBroadcastCommitsEverywhere(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			sim, c, chk := newTestCluster(t, n, 2)
			sim.RunFor(20 * time.Millisecond)
			const total = 200
			committed := 0
			for i := 1; i <= total; i++ {
				payload := make([]byte, 16)
				abcast.PutMsgID(payload, uint64(i))
				chk.OnBroadcast(uint64(i))
				c.Submit(payload, func() { committed++ })
			}
			sim.RunFor(50 * time.Millisecond)
			if committed != total {
				t.Fatalf("committed %d of %d", committed, total)
			}
			if err := chk.CheckTotalOrder(); err != nil {
				t.Fatal(err)
			}
			// Every replica delivered every message (stable run).
			for i := 0; i < n; i++ {
				if got := len(chk.Delivered(i)); got != total {
					t.Fatalf("replica %d delivered %d of %d", i, got, total)
				}
			}
		})
	}
}

func TestCommitLatencyIsMicroseconds(t *testing.T) {
	// Sanity calibration: a 10-byte message on an idle 3-node group must
	// commit at the client in ~10us (paper Figure 8a).
	sim, c, _ := newTestCluster(t, 3, 3)
	sim.RunFor(20 * time.Millisecond)
	var lat time.Duration
	payload := make([]byte, 10)
	abcast.PutMsgID(payload, 42)
	start := sim.Now()
	c.OnDeliver = nil
	c.Submit(payload, func() { lat = sim.Now().Sub(start) })
	sim.RunFor(5 * time.Millisecond)
	if lat == 0 {
		t.Fatal("message never committed")
	}
	if lat < 3*time.Microsecond || lat > 25*time.Microsecond {
		t.Fatalf("commit latency = %v, want ~10us", lat)
	}
}

func TestLeaderCrashFailover(t *testing.T) {
	sim, c, chk := newTestCluster(t, 5, 4)
	sim.RunFor(20 * time.Millisecond)

	committed := make(map[uint64]bool)
	var id uint64
	submit := func() {
		id++
		payload := make([]byte, 16)
		abcast.PutMsgID(payload, id)
		chk.OnBroadcast(id)
		myID := id
		c.Submit(payload, func() { committed[myID] = true })
	}
	for i := 0; i < 50; i++ {
		submit()
	}
	sim.RunFor(10 * time.Millisecond)

	old := c.LeaderIdx()
	c.Replicas[old].Crash()
	sim.RunFor(30 * time.Millisecond) // detection + election

	nw := c.LeaderIdx()
	if nw < 0 {
		t.Fatal("no new leader after crash")
	}
	if nw == old {
		t.Fatal("crashed node still leader")
	}

	// The group keeps committing after failover.
	for i := 0; i < 50; i++ {
		submit()
	}
	sim.RunFor(30 * time.Millisecond)
	if len(committed) != 100 {
		t.Fatalf("committed %d of 100 across failover", len(committed))
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestCommittedPrefixSurvivesCrash(t *testing.T) {
	// Messages committed before the leader crash must be delivered by the
	// new epoch's replicas too (no committed message is ever lost).
	sim, c, chk := newTestCluster(t, 3, 5)
	sim.RunFor(20 * time.Millisecond)

	committedIDs := make(map[uint64]bool)
	for i := uint64(1); i <= 30; i++ {
		payload := make([]byte, 16)
		abcast.PutMsgID(payload, i)
		chk.OnBroadcast(i)
		i := i
		c.Submit(payload, func() { committedIDs[i] = true })
	}
	sim.RunFor(10 * time.Millisecond)
	nCommitted := len(committedIDs)
	if nCommitted == 0 {
		t.Fatal("nothing committed before crash")
	}

	c.Replicas[c.LeaderIdx()].Crash()
	sim.RunFor(40 * time.Millisecond)

	// Drive one more message so followers' commits catch up.
	payload := make([]byte, 16)
	abcast.PutMsgID(payload, 1000)
	chk.OnBroadcast(1000)
	c.Submit(payload, nil)
	sim.RunFor(20 * time.Millisecond)

	for i, r := range c.Replicas {
		if r.Node.Crashed() {
			continue
		}
		seen := make(map[uint64]bool)
		for _, d := range chk.Delivered(i) {
			seen[d] = true
		}
		for cid := range committedIDs {
			if !seen[cid] {
				t.Fatalf("replica %d lost committed message %d after failover", i, cid)
			}
		}
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestUpToDateLeaderProperty(t *testing.T) {
	// At every election, the winner's log must dominate the quorum that
	// voted for it — assert the winner's accepted header is >= every
	// committed header in the group.
	sim, c, chk := newTestCluster(t, 5, 6)
	for _, r := range c.Replicas {
		r := r
		r.OnElected = func(e Epoch) {
			for k, other := range c.Replicas {
				if other.Committed().Cmp(r.Accepted()) > 0 {
					t.Fatalf("election winner %d (accepted %v) behind replica %d (committed %v)",
						r.ID, r.Accepted(), k, other.Committed())
				}
			}
		}
	}
	sim.RunFor(20 * time.Millisecond)
	rounds := 3
	if testing.Short() {
		rounds = 2
	}
	var id uint64
	for round := 0; round < rounds; round++ {
		for i := 0; i < 30; i++ {
			id++
			payload := make([]byte, 16)
			abcast.PutMsgID(payload, id)
			chk.OnBroadcast(id)
			c.Submit(payload, nil)
		}
		sim.RunFor(10 * time.Millisecond)
		if ldr := c.LeaderIdx(); ldr >= 0 && round < 2 {
			c.Replicas[ldr].Crash()
			sim.RunFor(40 * time.Millisecond)
		}
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestPausedLeaderRejoinsAsFollower(t *testing.T) {
	sim, c, chk := newTestCluster(t, 3, 7)
	sim.RunFor(20 * time.Millisecond)
	old := c.LeaderIdx()
	// The paper's Table 1 experiment: the leader sleeps (descheduled), the
	// group elects a new leader, the sleeper wakes and rejoins.
	c.Replicas[old].Node.Proc.Pause(30 * time.Millisecond)
	sim.RunFor(60 * time.Millisecond)
	nw := c.LeaderIdx()
	if nw < 0 || nw == old {
		t.Fatalf("new leader = %d (old %d)", nw, old)
	}
	// Traffic flows; the woken node follows the new epoch.
	for i := uint64(1); i <= 20; i++ {
		payload := make([]byte, 16)
		abcast.PutMsgID(payload, i)
		chk.OnBroadcast(i)
		c.Submit(payload, nil)
	}
	sim.RunFor(30 * time.Millisecond)
	if got := c.Replicas[old].Role(); got != Follower {
		t.Fatalf("woken leader role = %v, want FOLLOWER", got)
	}
	if c.Replicas[old].Epoch() != c.Replicas[nw].Epoch() {
		t.Fatal("woken leader did not join new epoch")
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	if got := len(chk.Delivered(old)); got != 20 {
		t.Fatalf("woken node delivered %d of 20", got)
	}
}

// TestRestartLiveReplicaKeepsOnePollLoop pins Restart as a no-op on a
// replica that is not crashed. Only a crash ends a poll loop, so a Restart
// that called Start would leave two running beside each other: the group
// must still count one poll per poll interval per replica afterwards.
func TestRestartLiveReplicaKeepsOnePollLoop(t *testing.T) {
	sim := simnet.New(9)
	tr := trace.New(trace.FingerprintRing)
	sim.SetTracer(tr)
	c := NewCluster(sim, rdma.NewFabric(sim, rdma.DefaultParams()), DefaultClusterConfig(3))
	c.Start()
	sim.RunFor(20 * time.Millisecond)
	polls := func(d time.Duration) int64 {
		before := tr.Counter(trace.CtrPolls)
		sim.RunFor(d)
		return tr.Counter(trace.CtrPolls) - before
	}
	const window = time.Millisecond
	base := polls(window)
	f := (c.LeaderIdx() + 1) % 3
	r := c.Replicas[f]
	r.Restart()
	role := r.Role()
	got := polls(window)
	perLoop := int64(window / (r.Cfg.PollInterval + pollCost))
	if got > base+perLoop/2 {
		t.Fatalf("%d polls in the window after Restart, %d before: a second poll loop (%d polls per window each) is running",
			got, base, perLoop)
	}
	if role != Follower {
		t.Fatalf("Restart moved a live follower to %v", role)
	}
}

func TestQuorumRunsDespiteDeadFollower(t *testing.T) {
	// Acuerdo runs at the speed of the fastest quorum: killing one
	// follower of three must not stall commits.
	sim, c, chk := newTestCluster(t, 3, 8)
	sim.RunFor(20 * time.Millisecond)
	ldr := c.LeaderIdx()
	dead := (ldr + 1) % 3
	c.Replicas[dead].Crash()
	committed := 0
	for i := uint64(1); i <= 100; i++ {
		payload := make([]byte, 16)
		abcast.PutMsgID(payload, i)
		chk.OnBroadcast(i)
		c.Submit(payload, func() { committed++ })
	}
	sim.RunFor(40 * time.Millisecond)
	if committed != 100 {
		t.Fatalf("committed %d of 100 with a dead follower", committed)
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestSlowFollowerCatchesUp(t *testing.T) {
	// A follower descheduled mid-stream must catch up via receiver-side
	// batching without stalling the group.
	sim, c, chk := newTestCluster(t, 3, 9)
	sim.RunFor(20 * time.Millisecond)
	ldr := c.LeaderIdx()
	slow := (ldr + 1) % 3
	committed := 0
	var id uint64
	pump := func(k int) {
		for i := 0; i < k; i++ {
			id++
			payload := make([]byte, 16)
			abcast.PutMsgID(payload, id)
			chk.OnBroadcast(id)
			c.Submit(payload, func() { committed++ })
		}
	}
	pump(50)
	sim.RunFor(5 * time.Millisecond)
	c.Replicas[slow].Node.Proc.Pause(2 * time.Millisecond)
	pump(100)
	sim.RunFor(2 * time.Millisecond) // while the follower is paused
	before := committed
	if before == 0 {
		t.Fatal("commits stalled during follower pause")
	}
	sim.RunFor(40 * time.Millisecond)
	if committed != 150 {
		t.Fatalf("committed %d of 150", committed)
	}
	if got := len(chk.Delivered(slow)); got != 150 {
		t.Fatalf("slow follower delivered %d of 150 (no catch-up)", got)
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashStormSafety(t *testing.T) {
	// Repeatedly crash leaders (up to f of them) under continuous load
	// across several seeds; safety must hold throughout. One seed under
	// -short keeps the race-enabled CI lane fast; full runs sweep four.
	lastSeed := int64(24)
	if testing.Short() {
		lastSeed = 21
	}
	for seed := int64(20); seed < lastSeed; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sim, c, chk := newTestCluster(t, 5, seed)
			sim.RunFor(20 * time.Millisecond)
			var id uint64
			crashed := 0
			for phase := 0; phase < 6; phase++ {
				for i := 0; i < 20; i++ {
					id++
					payload := make([]byte, 16)
					abcast.PutMsgID(payload, id)
					chk.OnBroadcast(id)
					c.Submit(payload, nil)
				}
				sim.RunFor(8 * time.Millisecond)
				if crashed < 2 && phase%2 == 0 { // f=2 for n=5
					if ldr := c.LeaderIdx(); ldr >= 0 {
						c.Replicas[ldr].Crash()
						crashed++
						sim.RunFor(30 * time.Millisecond)
					}
				}
			}
			sim.RunFor(50 * time.Millisecond)
			if err := chk.CheckTotalOrder(); err != nil {
				t.Fatal(err)
			}
			if chk.MinDelivered() == 0 {
				t.Fatal("no progress under crash storm")
			}
		})
	}
}

func TestOldEpochMessagesDiscarded(t *testing.T) {
	// A deposed leader's stragglers must not be accepted in the new epoch.
	sim, c, chk := newTestCluster(t, 3, 10)
	sim.RunFor(20 * time.Millisecond)
	old := c.LeaderIdx()
	oldR := c.Replicas[old]
	// Pause the leader, elect a new one.
	oldR.Node.Proc.Pause(25 * time.Millisecond)
	sim.RunFor(50 * time.Millisecond)
	if c.LeaderIdx() == old {
		t.Fatal("expected new leader")
	}
	// Old leader wakes thinking it leads; force a stale broadcast before it
	// learns better (its role flips only when it drains the diff).
	if oldR.Role() == Leader {
		payload := make([]byte, 16)
		abcast.PutMsgID(payload, 999)
		oldR.Broadcast(payload) // stale epoch; must be ignored everywhere
	}
	for i := uint64(1); i <= 10; i++ {
		payload := make([]byte, 16)
		abcast.PutMsgID(payload, i)
		chk.OnBroadcast(i)
		c.Submit(payload, nil)
	}
	sim.RunFor(30 * time.Millisecond)
	for i := range c.Replicas {
		for _, d := range chk.Delivered(i) {
			if d == 999 {
				t.Fatalf("stale-epoch message delivered at replica %d", i)
			}
		}
	}
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestElectionsAreFast(t *testing.T) {
	// Without injected scheduler noise an election (suspicion to first
	// broadcast capability) completes in tens of microseconds.
	sim, c, _ := newTestCluster(t, 3, 12)
	sim.RunFor(20 * time.Millisecond)
	old := c.LeaderIdx()
	c.Replicas[old].Crash()
	// Force suspicion immediately on survivors (Table 1 excludes
	// detection time).
	for i, r := range c.Replicas {
		if i != old {
			r.Suspect()
		}
	}
	sim.RunFor(10 * time.Millisecond)
	nw := c.LeaderIdx()
	if nw < 0 {
		t.Fatal("no new leader")
	}
	d := c.Replicas[nw].ElectionTook
	if d <= 0 || d > time.Millisecond {
		t.Fatalf("election duration = %v, want < 1ms on a quiet fabric", d)
	}
}

func TestReadySemantics(t *testing.T) {
	sim, c, _ := newTestCluster(t, 3, 13)
	if c.Ready() {
		t.Fatal("ready before any election")
	}
	sim.RunFor(20 * time.Millisecond)
	if !c.Ready() {
		t.Fatal("not ready after startup election")
	}
}

func TestNoDuplicateDeliveryAcrossFailover(t *testing.T) {
	// The checker's OnDeliver fails the test on duplicates; this exercises
	// the diff path heavily with repeated elections over the same log.
	sim, c, chk := newTestCluster(t, 5, 14)
	sim.RunFor(20 * time.Millisecond)
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	var id uint64
	for round := 0; round < rounds; round++ {
		for i := 0; i < 25; i++ {
			id++
			payload := make([]byte, 16)
			abcast.PutMsgID(payload, id)
			chk.OnBroadcast(id)
			c.Submit(payload, nil)
		}
		sim.RunFor(8 * time.Millisecond)
		if ldr := c.LeaderIdx(); ldr >= 0 {
			// Pause (not crash): the deposed leader rejoins and must not
			// re-deliver anything.
			c.Replicas[ldr].Node.Proc.Pause(20 * time.Millisecond)
			sim.RunFor(45 * time.Millisecond)
		}
	}
	sim.RunFor(60 * time.Millisecond)
	if err := chk.CheckTotalOrder(); err != nil {
		t.Fatal(err)
	}
	if chk.MinDelivered() < int(id)/2 {
		t.Fatalf("delivered only %d of %d at the slowest replica", chk.MinDelivered(), id)
	}
}

// TestBroadcastAcceptAllocFree pins the record path, request ring → Broadcast
// → follower accept → commit → delivery → acknowledgment ring, at no
// allocation per message: the request and the broadcast record are ring views,
// the broadcast is gathered into pooled wire frames, and the log copies each
// payload into its arena. What is left is amortised growth — a 64 KiB arena
// chunk and a doubling of entries now and then at each replica — bounded here
// at a tenth of an object per message.
func TestBroadcastAcceptAllocFree(t *testing.T) {
	objs, msgs := steadyStateAllocs(t, false)
	if per := float64(objs) / float64(msgs); per > 0.1 {
		t.Fatalf("%d objects over %d messages at 3 replicas = %.3f per message, want <= 0.1", objs, msgs, per)
	} else {
		t.Logf("%d objects over %d messages (%.4f per message)", objs, msgs, per)
	}
}

// TestDurableRecordPathAllocFree is the same path with a WAL on every
// replica: each delivery appends its record in place on the device, and each
// commit-row push group-commits it and reports the durable frontier, all
// through recycled queues and fsync records. A replica with a store keeps
// its whole log, so the arena's chunks are what remains — bounded here at a
// twentieth of an object per delivery.
func TestDurableRecordPathAllocFree(t *testing.T) {
	objs, msgs := steadyStateAllocs(t, true)
	deliveries := 3 * msgs
	if per := float64(objs) / float64(deliveries); per > 0.05 {
		t.Fatalf("%d objects over %d deliveries = %.3f per delivery, want <= 0.05", objs, deliveries, per)
	} else {
		t.Logf("%d objects over %d deliveries (%.4f per delivery)", objs, deliveries, per)
	}
}

// TestRunClosedLoopAllocFree pins abcast.RunClosedLoop's own per-request
// work over a real group — a recycled request record whose buffer carries
// the next request, its bound completion, the client's request table and
// armed retry — at no allocation: between two submits in the warm-up the
// whole run, client and replicas, allocates nothing per request. The bound
// is a thousandth of an object per request, for a slice somewhere in the
// run reaching a new peak.
func TestRunClosedLoopAllocFree(t *testing.T) {
	sim := simnet.New(1)
	c := NewCluster(sim, rdma.NewFabric(sim, rdma.DefaultParams()), DefaultClusterConfig(3))
	c.Start()
	sim.RunFor(20 * time.Millisecond)
	if c.LeaderIdx() < 0 {
		t.Fatal("no leader")
	}
	const from, to = 20000, 40000
	var ms runtime.MemStats
	var before, after uint64
	// The span opens and closes inside the load's callbacks, so it is
	// measured as memSpan measures: on one P, after a collection.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	abcast.RunClosedLoop(sim, c, abcast.LoadConfig{
		Window: 16, MsgSize: 100, Warmup: 100 * time.Millisecond, Measure: time.Microsecond,
		OnSubmit: func(id uint64) {
			switch id {
			case from:
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before = ms.Mallocs
			case to:
				runtime.ReadMemStats(&ms)
				after = ms.Mallocs
			}
		},
	})
	if after == 0 {
		t.Fatalf("the warm-up did not reach request %d", to)
	}
	const reqs = to - from
	if per := float64(after-before) / reqs; per > 0.001 {
		t.Fatalf("%d objects over %d requests = %.4f per request, want <= 0.001", after-before, reqs, per)
	} else {
		t.Logf("%d objects over %d requests (%.5f per request)", after-before, reqs, per)
	}
}

// steadyStateAllocs runs a 3-replica group at window 16, 100 B, warms it up
// and returns the heap objects allocated over the next 10 000 acknowledged
// messages, and their count. durable gives every replica a disk.
func steadyStateAllocs(t *testing.T, durable bool) (objs uint64, msgs int) {
	t.Helper()
	sim := simnet.New(1)
	cfg := DefaultClusterConfig(3)
	c := NewCluster(sim, rdma.NewFabric(sim, rdma.DefaultParams()), cfg)
	var devs []*disk.Device
	if durable {
		for i := 0; i < cfg.N; i++ {
			devs = append(devs, disk.NewDevice(sim, i, disk.DefaultParams()))
		}
		c.SetDisks(devs)
	}
	c.Start()
	sim.RunFor(20 * time.Millisecond)
	if c.LeaderIdx() < 0 {
		t.Fatal("no leader")
	}

	// The warm-up is long because the simulator's calendar queue grows each of
	// its 8192 buckets on demand, over many 2.1 ms rotations.
	const window, size, warm, measured = 16, 100, 60000, 10000
	var next uint64
	acked := 0
	send := make([]func(), window)
	for i := range send {
		p := make([]byte, size)
		var done func()
		send[i] = func() {
			next++
			abcast.PutMsgID(p, next)
			c.Submit(p, done)
		}
		done = func() { acked++; send[i]() }
		send[i]()
	}
	runTo := func(n int) {
		for i := 0; acked < n; i++ {
			if i > 10000 {
				t.Fatalf("stalled at %d of %d acks", acked, n)
			}
			sim.RunFor(100 * time.Microsecond)
		}
	}
	runTo(warm)
	start := acked
	before, after := memSpan(func() { runTo(warm + measured) })
	msgs, want := acked-start, acked
	sim.RunFor(time.Millisecond) // followers deliver behind the commit row
	for i, r := range c.Replicas {
		if int(r.Stats.Delivered) < want {
			t.Fatalf("replica %d delivered %d of %d acknowledged messages", i, r.Stats.Delivered, want)
		}
	}
	for i, dev := range devs {
		if st := dev.Stats(); st.Writes < int64(want) || st.Fsyncs == 0 {
			t.Fatalf("replica %d's disk took %d writes and %d fsyncs for %d deliveries", i, st.Writes, st.Fsyncs, want)
		}
	}
	return after.Mallocs - before.Mallocs, msgs
}

// memSpan reads the heap counters around f as testing.AllocsPerRun does, on
// one P, and after a collection, so no background sweep or other goroutine
// lands a stray allocation inside the span.
func memSpan(f func()) (before, after runtime.MemStats) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return before, after
}
