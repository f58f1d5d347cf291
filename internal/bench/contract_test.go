package bench

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/simnet"
)

// TestGroupContract holds every system to abcast.Group through the bench
// wiring alone: no per-system knowledge beyond which kinds are durable.
func TestGroupContract(t *testing.T) {
	const n = 3
	durable := make(map[Kind]bool)
	for _, k := range durableKinds {
		durable[k] = true
	}
	for _, kind := range AllKinds {
		t.Run(string(kind), func(t *testing.T) {
			inst := NewInstance(kind, n, 5, Options{Durability: Durable})
			defer inst.Close()
			g, tgt := inst.Group, inst.ChaosTarget()
			if g.Size() != n || tgt.Replicas() != n {
				t.Fatalf("Size() = %d, target Replicas() = %d, want %d", g.Size(), tgt.Replicas(), n)
			}
			ids := make(map[int]bool)
			for i := 0; i < n; i++ {
				if g.Proc(i) == nil {
					t.Fatalf("Proc(%d) is nil", i)
				}
				if ids[g.NodeID(i)] {
					t.Fatalf("NodeID(%d) = %d repeats an earlier replica's", i, g.NodeID(i))
				}
				ids[g.NodeID(i)] = true
			}
			ldr := g.LeaderIdx()
			if ldr < 0 || ldr >= n || tgt.Leader() != ldr {
				t.Fatalf("after warm-up LeaderIdx() = %d, target Leader() = %d", ldr, tgt.Leader())
			}
			if _, ok := g.(abcast.DurableGroup); ok != durable[kind] || (inst.Disks != nil) != durable[kind] {
				t.Fatalf("DurableGroup = %v, disks attached = %v, want both %v", ok, inst.Disks != nil, durable[kind])
			}

			seen := make([]int, n)
			chk := inst.Check(func(replica int, payload []byte) { seen[replica]++ })
			res := abcast.RunClosedLoop(inst.Sim, inst.Sys, abcast.LoadConfig{
				Window: 4, MsgSize: 16, Warmup: time.Millisecond, Measure: 4 * time.Millisecond,
				OnSubmit: chk.OnBroadcast,
			})
			if res.Committed == 0 {
				t.Fatal("committed nothing")
			}
			for i, c := range seen {
				if c == 0 || len(chk.Delivered(i)) == 0 {
					t.Fatalf("Check's tap never saw replica %d (apply calls %v)", i, seen)
				}
			}
			if err := chk.Err(); err != nil {
				t.Fatal(err)
			}

			// Check hooks the restart path only where a replica has a disk
			// to replay from.
			restarted := -1
			openWindow := inst.member.BeforeRestart
			if (openWindow != nil) != durable[kind] {
				t.Fatalf("Check hooked Restart = %v, want %v", openWindow != nil, durable[kind])
			}
			inst.member.BeforeRestart = func(i int) {
				restarted = i
				if openWindow != nil {
					openWindow(i)
				}
			}
			tgt.Crash(ldr)
			if g.Proc(ldr).Alive() || g.LeaderIdx() == ldr {
				t.Fatalf("Crash(%d): proc alive = %v, LeaderIdx() = %d", ldr, g.Proc(ldr).Alive(), g.LeaderIdx())
			}
			inst.Sim.RunFor(30 * time.Millisecond)
			tgt.Restart(ldr)
			if restarted != ldr {
				t.Fatalf("BeforeRestart hook saw %d, want %d", restarted, ldr)
			}
			// After a volatile restart a re-delivery is still a duplicate.
			if !durable[kind] {
				if err := chk.OnDeliver(ldr, chk.Delivered(ldr)[0]); err == nil {
					t.Fatalf("Check excused a re-delivery after the volatile Restart(%d)", ldr)
				}
			}
			// Restart is a documented no-op where a system has no rejoin
			// path (derecho members, the APUS leader); where the replica did
			// come back, the group must serve again.
			inst.Sim.RunFor(50 * time.Millisecond)
			if g.Proc(ldr).Alive() {
				for i := 0; i < 100 && !g.Ready(); i++ {
					inst.Sim.RunFor(5 * time.Millisecond)
				}
				if l := g.LeaderIdx(); !g.Ready() || l < 0 || l >= n {
					t.Fatalf("replica %d rejoined but the group is not serving (Ready %v, LeaderIdx %d)", ldr, g.Ready(), l)
				}
			}
			// A durable restart re-delivers its recovered prefix (libpaxos
			// only a stale tail, possibly empty), and the replay window Check
			// opened absorbs the retrace.
			if durable[kind] {
				t.Logf("Restart(%d) re-delivered %d messages", ldr, seen[ldr]-len(chk.Delivered(ldr)))
				if err := chk.Err(); err != nil {
					t.Fatalf("durable Restart(%d): the replayed prefix was not excused: %v", ldr, err)
				}
			}
		})
	}
}

// TestSubscribeNilDetaches holds every system to abcast.Group's "nil
// detaches": an observer attached through the bench wiring checks a run, and
// once the group subscribes nil it checks nothing more — SST write hooks
// included, which is where Derecho's group used to keep it.
func TestSubscribeNilDetaches(t *testing.T) {
	load := abcast.LoadConfig{Window: 4, MsgSize: 16, Warmup: time.Millisecond, Measure: 4 * time.Millisecond}
	for _, kind := range AllKinds {
		t.Run(string(kind), func(t *testing.T) {
			sim := simnet.New(5)
			obs := NewObserver(sim, kind, 3)
			inst := NewInstanceOn(sim, kind, 3, Options{Observer: obs})
			defer inst.Close()
			inst.warmUp()
			abcast.RunClosedLoop(sim, inst.Sys, load)
			if obs.Checks() == 0 {
				t.Fatal("the attached observer checked nothing")
			}
			inst.Group.Subscribe(nil)
			before := obs.Checks()
			if res := abcast.RunClosedLoop(sim, inst.Sys, load); res.Committed == 0 {
				t.Fatal("committed nothing after the detach")
			}
			if after := obs.Checks(); after != before {
				t.Fatalf("Subscribe(nil) left the observer attached: %d checks after the detach", after-before)
			}
		})
	}
}

// TestSubmitPayloadNotRetained pins abcast.System.Submit's buffer rule —
// the payload is the caller's again once done runs — which lets
// RunClosedLoop's request records carry their next request in the same
// buffer. Every system runs the same closed loop twice, once with each
// buffer filled with 0xFF the instant its ack runs: a system that still read
// an acknowledged request's bytes (a queued view, an armed retry that re-sent
// without looking up its id) would order or deliver something else, and the
// delivery fingerprints would differ. The run outlasts every system's retry
// timeout, so armed re-sends fire after their requests' acks.
func TestSubmitPayloadNotRetained(t *testing.T) {
	for _, kind := range AllKinds {
		t.Run(string(kind), func(t *testing.T) {
			run := func(poison bool) (uint64, int) {
				inst := NewInstance(kind, 3, 3, Options{})
				defer inst.Close()
				chk := inst.Check(nil)
				sys := inst.Sys
				if poison {
					sys = poisonOnAck{sys}
				}
				res := abcast.RunClosedLoop(inst.Sim, sys, abcast.LoadConfig{
					Window: 8, MsgSize: 32, Warmup: time.Millisecond, Measure: 60 * time.Millisecond,
					OnSubmit: chk.OnBroadcast,
				})
				if err := chk.Err(); err != nil {
					t.Fatalf("poisoned %v: %v", poison, err)
				}
				return uint64(chk.Fingerprint()), res.Committed
			}
			fp, n := run(false)
			pfp, pn := run(true)
			if n == 0 {
				t.Fatal("committed nothing")
			}
			if fp != pfp || n != pn {
				t.Fatalf("poisoning acknowledged buffers moved the run: fingerprint %016x, %d commits; poisoned %016x, %d commits", fp, n, pfp, pn)
			}
		})
	}
}

// poisonOnAck fills each payload with 0xFF the instant its ack runs, before
// the closed loop's record carries its next request in the same buffer.
type poisonOnAck struct{ abcast.System }

func (p poisonOnAck) Submit(payload []byte, done func()) {
	p.System.Submit(payload, func() {
		for i := range payload {
			payload[i] = 0xFF
		}
		done()
	})
}

// TestPayloadIntegrity checks what the other oracles do not look at: the
// bytes. Every payload byte is derived from the request id and compared at
// every delivery at every replica, under a closed loop whose window × record
// size exceeds the 1 MiB client request ring, so the client's backlog rewrites
// each slot the moment its credit returns — a replica that still held a view
// of a request (ringbuf's buffer-ownership rule) would read its successor.
// Figure 8 cannot see that: its largest window × size stays under the ring,
// and no slot is refilled while its request is queued. The overwriting record
// is itself a well-formed request, so a stale view surfaces first as the
// checker's no-duplication (the new id delivered in the old one's place);
// both are asserted.
func TestPayloadIntegrity(t *testing.T) {
	const clientRing = 1 << 20 // ringbuf.DefaultConfig, NewClientLink's rings
	fill := func(p []byte, id uint64) {
		abcast.PutMsgID(p, id)
		for i := 8; i < len(p); i++ {
			p[i] = byte(id) + byte(id>>8) + byte(i*7)
		}
	}
	for _, tc := range []struct {
		kind         Kind
		size, window int
	}{
		{Acuerdo, 1000, 2048},
		{DerechoLeader, 1000, 2048},
		{Apus, 1000, 2048},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			if tc.size*tc.window <= clientRing {
				t.Fatalf("window %d x %d B fits the %d B client ring", tc.window, tc.size, clientRing)
			}
			inst := NewInstance(tc.kind, 3, 1, Options{})
			defer inst.Close()
			want := make([]byte, tc.size)
			deliveries, corrupt := 0, ""
			chk := inst.Check(func(replica int, payload []byte) {
				deliveries++
				if corrupt != "" {
					return
				}
				if fill(want, abcast.MsgID(payload)); !bytes.Equal(payload, want) {
					corrupt = fmt.Sprintf("replica %d, delivery %d: request %d arrived with %d bytes that are not the %d it was sent with",
						replica, deliveries, abcast.MsgID(payload), len(payload), tc.size)
				}
			})
			acks := 0
			abcast.Loop(inst.Sim, inst.Sys, tc.window, func(id uint64, next func()) {
				p := make([]byte, tc.size)
				fill(p, id)
				chk.OnBroadcast(id)
				inst.Sys.Submit(p, func() { acks++; next() })
			})
			inst.Sim.RunFor(30 * time.Millisecond)
			if err := chk.Err(); err != nil {
				t.Error(err)
			}
			if corrupt != "" {
				t.Error(corrupt)
			}
			if err := chk.CheckTotalOrder(); err != nil {
				t.Error(err)
			}
			if wraps := acks * tc.size / clientRing; wraps < 3 {
				t.Fatalf("%d acks of %d B wrap the client ring %d times, want several", acks, tc.size, wraps)
			}
			if chk.MinDelivered() < acks/2 {
				t.Fatalf("a replica delivered %d of %d acknowledged requests", chk.MinDelivered(), acks)
			}
		})
	}
}
