package abcast

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"acuerdo/internal/simnet"
)

// request returns a payload carrying id.
func request(id uint64) []byte {
	p := make([]byte, 16)
	PutMsgID(p, id)
	return p
}

// TestClientAck covers the request table: done runs once per submitted
// request however often the id is acknowledged, and acknowledgments for ids
// the client does not hold are ignored.
func TestClientAck(t *testing.T) {
	for _, tc := range []struct {
		name   string
		submit []uint64
		acks   []uint64
		want   map[uint64]int // id -> times done ran
	}{
		{"acked once", []uint64{1}, []uint64{1}, map[uint64]int{1: 1}},
		{"acked twice", []uint64{1}, []uint64{1, 1}, map[uint64]int{1: 1}},
		{"never submitted", []uint64{1}, []uint64{2}, map[uint64]int{}},
		{"unacked stays pending", []uint64{1, 2}, []uint64{2}, map[uint64]int{2: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClient(simnet.New(1), func(uint64, []byte) bool { return true }, 0, 0)
			got := map[uint64]int{}
			for _, id := range tc.submit {
				id := id
				c.Submit(request(id), func() { got[id]++ })
			}
			for _, id := range tc.acks {
				c.Ack(request(id)[:8])
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("done counts %v, want %v", got, tc.want)
			}
		})
	}
	// A nil done is legal.
	c := NewClient(simnet.New(1), func(uint64, []byte) bool { return true }, 0, 0)
	c.Submit(request(9), nil)
	c.Ack(request(9))
}

// TestClientRetry covers the retry loop against a scripted try: result k of
// the script answers attempt k (the last one repeats), the ack arrives at
// ackAt, and the attempts must land at exactly the listed times — idle after
// a false, timeout after a true, none after the ack, none for a zero
// duration.
func TestClientRetry(t *testing.T) {
	const (
		ms      = time.Millisecond
		timeout = 10 * ms
		idle    = 1 * ms
		never   = time.Duration(-1)
	)
	for _, tc := range []struct {
		name          string
		timeout, idle time.Duration
		script        []bool
		ackAt         time.Duration
		want          []time.Duration
	}{
		{"sent: retried after timeout", timeout, idle, []bool{true}, never, []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}},
		{"no target: retried after idle", timeout, idle, []bool{false}, never, []time.Duration{0, 1 * ms, 2 * ms, 3 * ms}},
		{"no target, then sent", timeout, idle, []bool{false, false, true}, never, []time.Duration{0, 1 * ms, 2 * ms, 12 * ms}},
		// Derecho's rule: sent, held twice while the member is alive or not
		// yet excluded, then re-sent.
		{"sent, held, re-sent", timeout, idle, []bool{true, false, false, true}, never, []time.Duration{0, 10 * ms, 11 * ms, 12 * ms, 22 * ms}},
		{"never after the ack", timeout, idle, []bool{true}, 15 * ms, []time.Duration{0, 10 * ms}},
		{"acked before the first retry", timeout, idle, []bool{true}, 5 * ms, []time.Duration{0}},
		// APUS: nothing is ever armed.
		{"zero timeout never re-arms", 0, 0, []bool{true}, never, []time.Duration{0}},
		{"zero idle never re-arms", timeout, 0, []bool{false}, never, []time.Duration{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := simnet.New(1)
			var got []time.Duration
			c := NewClient(sim, func(id uint64, payload []byte) bool {
				if id != 7 || MsgID(payload) != 7 {
					t.Fatalf("try(%d, id %d), want request 7", id, MsgID(payload))
				}
				k := len(got)
				got = append(got, sim.Now().Duration())
				if k >= len(tc.script) {
					k = len(tc.script) - 1
				}
				return tc.script[k]
			}, tc.timeout, tc.idle)
			done := 0
			c.Submit(request(7), func() { done++ })
			if tc.ackAt != never {
				sim.After(tc.ackAt, func() { c.Ack(request(7)) })
			}
			sim.RunFor(tc.want[len(tc.want)-1] + idle/2)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("attempts at %v, want %v", got, tc.want)
			}
			if tc.ackAt != never {
				// Whatever was armed before the ack must find nothing to do.
				sim.RunFor(10 * timeout)
				if len(got) != len(tc.want) || done != 1 {
					t.Fatalf("after the ack: %d attempts (want %d), done ran %d times", len(got), len(tc.want), done)
				}
			}
		})
	}
}

// TestClientSubmitAckAllocs pins the client's own steady-state cost per
// request at zero objects: the armed retry is a value in its queue's
// recycled block and the table entry reuses its map slot.
func TestClientSubmitAckAllocs(t *testing.T) {
	sim := simnet.New(1)
	c := NewClient(sim, func(uint64, []byte) bool { return true }, time.Microsecond, time.Microsecond)
	p := request(1)
	done := func() {}
	cycle := func() {
		c.Submit(p, done)
		c.Ack(p)
		sim.RunFor(2 * time.Microsecond) // fire and recycle the retry event
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("Submit→Ack allocates %v objects per request, want 0", n)
	}
}

// TestClientArmRetriesAllocFree arms 10 000 retries before any fires, the
// shape of a closed loop whose in-flight re-sends (rate × timeout) are still
// reaching their peak: records are carved in blocks, so arming allocates at
// most one object per hundred retries (a record and its bound fire each
// were two per retry). Then every retry fires and re-arms, with the queue
// never empty: after the first round (the tail may open one block before the
// head frees one), read blocks are recycled and five more rounds allocate
// nothing.
func TestClientArmRetriesAllocFree(t *testing.T) {
	const n = 10000
	sim := simnet.New(1)
	c := NewClient(sim, func(uint64, []byte) bool { return true }, time.Millisecond, time.Millisecond)
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = request(uint64(i + 1))
	}
	// Grow the table and the event slab first: they are not the records.
	for _, p := range payloads {
		c.pending[MsgID(p)] = nil
		sim.After(time.Millisecond, func() {})
	}
	sim.RunFor(2 * time.Millisecond)
	clear(c.pending)
	before, after := memSpan(func() {
		for _, p := range payloads {
			c.Submit(p, nil)
		}
	})
	if objs := after.Mallocs - before.Mallocs; objs > n/100 {
		t.Fatalf("arming %d retries allocated %d objects, want <= %d", n, objs, n/100)
	} else {
		t.Logf("arming %d retries allocated %d objects", n, objs)
	}
	sim.RunFor(time.Millisecond)
	before, after = memSpan(func() { sim.RunFor(5 * time.Millisecond) })
	if objs := after.Mallocs - before.Mallocs; objs != 0 {
		t.Fatalf("%d re-sends re-arming allocated %d objects, want 0", 5*n, objs)
	}
}

// refClient is the client the retry queues replaced — one free-listed
// record per armed re-send, each with its own bound fire — kept as the
// reference TestClientRetryDifferential compares against.
type refClient struct {
	sim     *simnet.Sim
	try     func(id uint64, payload []byte) bool
	timeout time.Duration
	idle    time.Duration
	pending map[uint64]func()

	free []*refRetry
}

type refRetry struct {
	c       *refClient
	id      uint64
	payload []byte
	fire    func()
}

func (r *refRetry) run() {
	c, id, payload := r.c, r.id, r.payload
	r.payload = nil
	c.free = append(c.free, r)
	if _, ok := c.pending[id]; ok {
		c.send(id, payload)
	}
}

func (c *refClient) Submit(payload []byte, done func()) {
	id := MsgID(payload)
	c.pending[id] = done
	c.send(id, payload)
}

func (c *refClient) send(id uint64, payload []byte) {
	d := c.idle
	if c.try(id, payload) {
		d = c.timeout
	}
	if d <= 0 {
		return
	}
	var r *refRetry
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		r = &refRetry{c: c}
		r.fire = r.run
	}
	r.id, r.payload = id, payload
	c.sim.After(d, r.fire)
}

func (c *refClient) Ack(m []byte) {
	id := MsgID(m)
	done, ok := c.pending[id]
	if !ok {
		return
	}
	delete(c.pending, id)
	if done != nil {
		done()
	}
}

// TestClientRetryDifferential runs the client and the per-record reference
// over the same random scripts — many ids, submits in bursts at one instant
// and spread out, try answering true and false, acks landing before,
// between and after the armed re-sends, equal, unequal and zero delays —
// and demands the identical sequence of attempts, by simulated time and id,
// and the same completions.
func TestClientRetryDifferential(t *testing.T) {
	const us = time.Microsecond
	type client interface {
		Submit([]byte, func())
		Ack([]byte)
	}
	type step struct {
		at     time.Duration
		ack    bool
		id     uint64
		repeat int // ids submitted at the same instant
	}
	delays := []time.Duration{0, 3 * us, 10 * us, 40 * us, 300 * us}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		timeout, idle := delays[rng.Intn(len(delays))], delays[rng.Intn(len(delays))]
		if seed%5 == 0 {
			idle = timeout
		}
		ids := 1 + rng.Intn(300)
		var script []step
		next := uint64(1)
		for at := time.Duration(0); next <= uint64(ids); at += time.Duration(rng.Intn(30)) * us {
			n := 1
			if rng.Intn(4) == 0 {
				n = 1 + rng.Intn(64)
			}
			script = append(script, step{at: at, id: next, repeat: n})
			for k := 0; k < n; k++ {
				if rng.Intn(3) > 0 {
					script = append(script, step{at: at + time.Duration(rng.Intn(2000))*us, ack: true, id: next + uint64(k)})
				}
			}
			next += uint64(n)
		}
		// try's answer for attempt k of id is a fixed function of both, so
		// the two clients are asked the same questions in the same order.
		pTrue := rng.Float64()
		answers := make(map[[2]uint64]bool)
		answer := func(id uint64, k int) bool {
			key := [2]uint64{id, uint64(k)}
			if v, ok := answers[key]; ok {
				return v
			}
			v := rng.Float64() < pTrue
			answers[key] = v
			return v
		}
		type attempt struct {
			at simnet.Time
			id uint64
		}
		run := func(build func(*simnet.Sim, func(uint64, []byte) bool) client) (attempts []attempt, done int) {
			sim := simnet.New(1)
			tries := map[uint64]int{}
			c := build(sim, func(id uint64, payload []byte) bool {
				if MsgID(payload) != id {
					t.Fatalf("try(%d) with payload %d", id, MsgID(payload))
				}
				attempts = append(attempts, attempt{sim.Now(), id})
				tries[id]++
				return answer(id, tries[id])
			})
			for _, s := range script {
				s := s
				sim.After(s.at, func() {
					if s.ack {
						c.Ack(request(s.id))
						return
					}
					for k := 0; k < s.repeat; k++ {
						c.Submit(request(s.id+uint64(k)), func() { done++ })
					}
				})
			}
			sim.RunFor(3 * time.Millisecond)
			return attempts, done
		}
		got, gotDone := run(func(sim *simnet.Sim, try func(uint64, []byte) bool) client {
			return NewClient(sim, try, timeout, idle)
		})
		want, wantDone := run(func(sim *simnet.Sim, try func(uint64, []byte) bool) client {
			return &refClient{sim: sim, try: try, timeout: timeout, idle: idle, pending: map[uint64]func(){}}
		})
		if gotDone != wantDone {
			t.Fatalf("seed %d: %d completions, reference %d", seed, gotDone, wantDone)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d (timeout %v, idle %v): attempt %d is %+v, reference %+v (of %d, %d)",
						seed, timeout, idle, i, got[i], want[i], len(got), len(want))
				}
			}
			t.Fatalf("seed %d: %d attempts, reference %d", seed, len(got), len(want))
		}
		if seed == 1 {
			t.Logf("seed 1: %d attempts over %d ids", len(got), ids)
		}
	}
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
