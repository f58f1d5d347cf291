package abcast

import (
	"reflect"
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
// request at zero objects: the armed retry is a recycled record and the table
// entry reuses its map slot.
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
