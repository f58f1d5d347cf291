package rdma

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

func testFabric(n int) (*simnet.Sim, *Fabric) {
	sim := simnet.New(1)
	p := DefaultParams()
	p.LinkJitter = nil // deterministic latencies for unit tests
	f := NewFabric(sim, p)
	for i := 0; i < n; i++ {
		f.AddNode("n")
	}
	return sim, f
}

// tracedFabric is testFabric with a tracer installed. A completion has no
// consumer to hand anything to: its KCQE event and CtrCQEs are all that a run
// can see of it, besides the send queue it frees.
func tracedFabric(n int) (*simnet.Sim, *Fabric, *trace.Tracer) {
	sim, f := testFabric(n)
	tr := trace.New(0)
	sim.SetTracer(tr)
	return sim, f, tr
}

// cqes returns the completions traced so far, oldest first, after checking
// that CtrCQEs counts the same ones.
func cqes(t *testing.T, tr *trace.Tracer) []trace.Event {
	t.Helper()
	var out []trace.Event
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KCQE {
			out = append(out, ev)
		}
	}
	if got := tr.Counter(trace.CtrCQEs); got != int64(len(out)) {
		t.Fatalf("CtrCQEs = %d, %d KCQE events traced", got, len(out))
	}
	return out
}

func TestWriteLandsBytes(t *testing.T) {
	sim, f := testFabric(2)
	a, b := f.Node(0), f.Node(1)
	mr := b.RegisterMemory(64)
	qp := a.Connect(b)
	if _, err := qp.Write(mr, 8, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Millisecond)
	if !bytes.Equal(mr.Buf[8:13], []byte("hello")) {
		t.Fatalf("remote memory = %q", mr.Buf[8:13])
	}
}

// TestWriteGather pins the gather list as a pure change of who assembles the
// frame: a two-part write lands the bytes of the concatenation and costs what
// the one-part write of the concatenation costs — post CPU, serialization (so
// landing time), wire bytes and WR count.
func TestWriteGather(t *testing.T) {
	hdr, payload := []byte("ring header "), bytes.Repeat([]byte{0xab}, 1000)
	type cost struct {
		landed      []byte
		busy        time.Duration
		lastDeliver simnet.Time
		bytesSent   uint64
		writes      uint64
		wrid        uint64
	}
	post := func(parts ...[]byte) cost {
		sim, f := testFabric(2)
		a, b := f.Node(0), f.Node(1)
		mr := b.RegisterMemory(2048)
		qp := a.Connect(b)
		wrid, err := qp.Write(mr, 16, parts...)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunFor(time.Millisecond)
		return cost{mr.Buf, a.Proc.BusyTime(), qp.lastDeliver, a.BytesSent, a.Writes, wrid}
	}
	one := post(append(append([]byte(nil), hdr...), payload...))
	two := post(hdr, payload)
	if !bytes.Equal(one.landed, two.landed) {
		t.Fatal("two-part write landed different bytes than the one-part write of the concatenation")
	}
	if !bytes.Equal(two.landed[16:16+len(hdr)], hdr) || two.landed[16+len(hdr)+999] != 0xab || two.landed[16+len(hdr)+1000] != 0 {
		t.Fatal("gathered parts did not land back to back at the offset")
	}
	one.landed, two.landed = nil, nil
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("two-part write cost %+v, one-part %+v", two, one)
	}
	if one.writes != 1 {
		t.Fatalf("a gather write posted %d WRs, want 1", one.writes)
	}
	// The bounds check is on the total.
	_, f := testFabric(2)
	mr := f.Node(1).RegisterMemory(16)
	if _, err := f.Node(0).Connect(f.Node(1)).Write(mr, 0, make([]byte, 10), make([]byte, 7)); err != ErrBounds {
		t.Fatalf("gather write past the MR: err = %v, want ErrBounds", err)
	}
}

func TestWriteNoRemoteCPU(t *testing.T) {
	sim, f := testFabric(2)
	a, b := f.Node(0), f.Node(1)
	mr := b.RegisterMemory(64)
	qp := a.Connect(b)
	// Deschedule the receiver CPU entirely: the write must still land.
	b.Proc.Pause(time.Second)
	if _, err := qp.Write(mr, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Millisecond)
	if mr.Buf[0] != 1 {
		t.Fatal("one-sided write required remote CPU")
	}
	if b.Proc.BusyTime() != 0 {
		t.Fatalf("receiver burned %v CPU", b.Proc.BusyTime())
	}
}

func TestFIFOPerQP(t *testing.T) {
	sim, f := testFabric(2)
	f.Params.LinkJitter = simnet.Exponential{MeanD: 500 * time.Nanosecond}
	a, b := f.Node(0), f.Node(1)
	mr := b.RegisterMemory(1)
	qp := a.Connect(b)
	var seen []byte
	prev := byte(0)
	b.Proc.PollLoop(50*time.Nanosecond, 0, func() {
		if mr.Buf[0] != prev {
			prev = mr.Buf[0]
			seen = append(seen, prev)
		}
	})
	for i := 1; i <= 100; i++ {
		if _, err := qp.Write(mr, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(time.Millisecond)
	// FIFO: observed values must be strictly increasing (later writes
	// overwrite earlier ones, but never the reverse).
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("non-FIFO observation: %v", seen)
		}
	}
	if len(seen) == 0 || seen[len(seen)-1] != 100 {
		t.Fatalf("final value not observed: %v", seen)
	}
}

func TestFIFOProperty(t *testing.T) {
	// Property: for random message trains, the receiver never observes a
	// value regression (FIFO + last-write-wins).
	check := func(sizes []uint8) bool {
		sim := simnet.New(99)
		p := DefaultParams()
		p.LinkJitter = simnet.Exponential{MeanD: 2 * time.Microsecond}
		f := NewFabric(sim, p)
		a, b := f.AddNode("a"), f.AddNode("b")
		mr := b.RegisterMemory(256)
		qp := a.Connect(b)
		ok := true
		prev := -1
		b.Proc.PollLoop(100*time.Nanosecond, 0, func() {
			v := int(mr.Buf[0])
			if v < prev {
				ok = false
			}
			prev = v
		})
		for i, sz := range sizes {
			data := make([]byte, int(sz)+1)
			data[0] = byte(i % 200)
			if i > 0 && byte(i%200) == 0 {
				continue
			}
			if _, err := qp.Write(mr, 0, data[:1]); err != nil {
				return false
			}
		}
		sim.RunFor(10 * time.Millisecond)
		return ok
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSelectiveSignaling(t *testing.T) {
	sim, f, tr := tracedFabric(2)
	a, b := f.Node(0), f.Node(1)
	mr := b.RegisterMemory(8)
	qp := a.Connect(b)
	qp.SignalEvery = 10
	for i := 0; i < 100; i++ {
		if _, err := qp.Write(mr, 0, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(time.Millisecond)
	comps := cqes(t, tr)
	if len(comps) != 10 {
		t.Fatalf("completions = %d, want 10 (every 10th write)", len(comps))
	}
	for i, ev := range comps {
		if ev.Node != 0 || ev.A != int64(10*(i+1)) || Status(ev.B) != OK {
			t.Fatalf("completion %d = %+v, want OK for wrid %d at the sender", i, ev, 10*(i+1))
		}
	}
	if got := tr.Counter(trace.CtrSigSkips); got != 90 {
		t.Fatalf("CtrSigSkips = %d, want 90", got)
	}
}

// One ack retires the signaled write and every write before it: a full send
// queue is empty again after a single completion.
func TestCompletionBatchClearsEarlier(t *testing.T) {
	sim, f, tr := tracedFabric(2)
	f.Params.SendQueueDepth = 51
	a, b := f.Node(0), f.Node(1)
	mr := b.RegisterMemory(8)
	qp := a.Connect(b)
	qp.SignalEvery = 51 // fifty unsignaled writes, then one that asks for the ack
	fill := func() {
		t.Helper()
		for i := 0; i < 51; i++ {
			if _, err := qp.Write(mr, 0, []byte{1}); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	}
	fill()
	if _, err := qp.Write(mr, 0, []byte{1}); err != ErrSendQueueFull {
		t.Fatalf("52nd unacknowledged write: err = %v, want ErrSendQueueFull", err)
	}
	sim.RunFor(time.Millisecond)
	comps := cqes(t, tr)
	if len(comps) != 1 || comps[0].A != 51 || Status(comps[0].B) != OK {
		t.Fatalf("completions = %+v, want one OK for wrid 51", comps)
	}
	fill() // all 51 slots are free again (batched ack)
}

func TestSendQueueFull(t *testing.T) {
	sim, f, tr := tracedFabric(2)
	f.Params.SendQueueDepth = 4
	a, b := f.Node(0), f.Node(1)
	mr := b.RegisterMemory(8)
	qp := a.Connect(b)
	qp.SignalEvery = 0
	for i := 0; i < 4; i++ {
		if _, err := qp.Write(mr, 0, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := qp.Write(mr, 0, []byte{1}); err != ErrSendQueueFull {
		t.Fatalf("err = %v, want ErrSendQueueFull", err)
	}
	// Landing frees nothing: only the ack of a signaled write does, and none
	// was asked for.
	sim.RunFor(time.Millisecond)
	if _, err := qp.Write(mr, 0, []byte{1}); err != ErrSendQueueFull || len(cqes(t, tr)) != 0 {
		t.Fatalf("after every write landed: err = %v with %d completions, want ErrSendQueueFull with none", err, len(cqes(t, tr)))
	}
}

func TestWriteBounds(t *testing.T) {
	_, f := testFabric(2)
	a, b := f.Node(0), f.Node(1)
	mr := b.RegisterMemory(8)
	qp := a.Connect(b)
	if _, err := qp.Write(mr, 6, []byte{1, 2, 3}); err != ErrBounds {
		t.Fatalf("err = %v, want ErrBounds", err)
	}
	if _, err := qp.Write(mr, -1, []byte{1}); err != ErrBounds {
		t.Fatalf("err = %v, want ErrBounds", err)
	}
}

func TestWriteWrongNode(t *testing.T) {
	_, f := testFabric(3)
	a, b, c := f.Node(0), f.Node(1), f.Node(2)
	mrC := c.RegisterMemory(8)
	qp := a.Connect(b)
	if _, err := qp.Write(mrC, 0, []byte{1}); err == nil {
		t.Fatal("write to wrong node's MR succeeded")
	}
}

func TestWriteToCrashedNode(t *testing.T) {
	sim, f, tr := tracedFabric(2)
	f.Params.SendQueueDepth = 1
	a, b := f.Node(0), f.Node(1)
	mr := b.RegisterMemory(8)
	qp := a.Connect(b)
	qp.SignalEvery = 1
	b.Crash()
	if _, err := qp.Write(mr, 0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(f.Params.RetryTimeout)
	if _, err := qp.Write(mr, 0, []byte{7}); err != ErrSendQueueFull || len(cqes(t, tr)) != 0 {
		t.Fatalf("before the retry timeout: err = %v with %d completions, want ErrSendQueueFull with none", err, len(cqes(t, tr)))
	}
	sim.RunFor(10 * time.Millisecond)
	comps := cqes(t, tr)
	if len(comps) != 1 || comps[0].Node != 0 || comps[0].A != 1 || Status(comps[0].B) != Flushed {
		t.Fatalf("comps = %+v, want one Flushed for wrid 1 at the sender", comps)
	}
	if got, want := simnet.Time(comps[0].TS), qp.lastDeliver.Add(f.Params.RetryTimeout); got != want {
		t.Fatalf("flushed at %v, want the retry timeout after the write reached the dead NIC (%v)", got, want)
	}
	if mr.Buf[0] == 7 {
		t.Fatal("write landed on crashed node")
	}
	if _, err := qp.Write(mr, 0, []byte{7}); err != nil {
		t.Fatalf("after the flush freed the send queue: %v", err)
	}
}

func TestPartitionParksAndHeals(t *testing.T) {
	sim, f := testFabric(2)
	a, b := f.Node(0), f.Node(1)
	mr := b.RegisterMemory(8)
	qp := a.Connect(b)
	f.Partition(0, 1)
	qp.Write(mr, 0, []byte{1})
	qp.Write(mr, 1, []byte{2})
	sim.RunFor(time.Millisecond)
	if mr.Buf[0] != 0 || mr.Buf[1] != 0 {
		t.Fatal("write crossed a partition")
	}
	f.Heal(0, 1)
	sim.RunFor(time.Millisecond)
	if mr.Buf[0] != 1 || mr.Buf[1] != 2 {
		t.Fatalf("parked writes not redelivered: %v", mr.Buf[:2])
	}
}

func TestLatencyCalibration(t *testing.T) {
	// A small write should arrive in roughly LinkLatency + serialization +
	// post cost: ~1.2us with defaults.
	sim, f := testFabric(2)
	a, b := f.Node(0), f.Node(1)
	mr := b.RegisterMemory(8)
	qp := a.Connect(b)
	qp.Write(mr, 0, []byte{9})
	var arrived simnet.Time
	b.Proc.PollLoop(10*time.Nanosecond, 0, func() {
		if mr.Buf[0] == 9 && arrived == 0 {
			arrived = sim.Now()
		}
	})
	sim.RunFor(time.Millisecond)
	if arrived == 0 {
		t.Fatal("write never arrived")
	}
	lat := arrived.Duration()
	if lat < 900*time.Nanosecond || lat > 2*time.Microsecond {
		t.Fatalf("small-write latency = %v, want ~1.2us", lat)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1000 writes of 1000B at 25Gb/s should take ~= 1000*1060B/3.125GB/s
	// ~= 339us of NIC time.
	sim, f := testFabric(2)
	a, b := f.Node(0), f.Node(1)
	mr := b.RegisterMemory(1000)
	qp := a.Connect(b)
	data := make([]byte, 1000)
	data[999] = 1
	for i := 0; i < 1000; i++ {
		if _, err := qp.Write(mr, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(5 * time.Millisecond)
	if mr.Buf[999] != 1 {
		t.Fatal("writes never landed")
	}
	total := time.Duration(float64(1000*(1000+f.Params.WireOverhead)) / f.Params.Bandwidth * 1e9)
	// The QP's last scheduled delivery must be at least the serialization
	// floor and not wildly above it.
	if qp.lastDeliver.Duration() < total {
		t.Fatalf("last delivery %v < serialization floor %v", qp.lastDeliver.Duration(), total)
	}
	if qp.lastDeliver.Duration() > total+time.Millisecond {
		t.Fatalf("last delivery %v too far above floor %v", qp.lastDeliver.Duration(), total)
	}
}

func TestMinWireSize(t *testing.T) {
	p := DefaultParams()
	if p.serialize(10) != p.serialize(1) {
		t.Fatal("sub-minimum messages should serialize identically")
	}
	if p.serialize(1000) <= p.serialize(10) {
		t.Fatal("large messages must serialize slower")
	}
}

func TestCrashRecoverKeepsMemory(t *testing.T) {
	sim, f := testFabric(2)
	a, b := f.Node(0), f.Node(1)
	mr := b.RegisterMemory(8)
	qp := a.Connect(b)
	qp.Write(mr, 0, []byte{5})
	sim.RunFor(time.Millisecond)
	b.Crash()
	b.Recover()
	if mr.Buf[0] != 5 {
		t.Fatal("memory lost across crash/recover")
	}
}

// TestCompletionsRetainNothing pins what a completion leaves behind: nothing.
// After a warm-up (frame pool, delivery records, calendar queue at their
// steady sizes) ten thousand more completions must not grow the live heap;
// anything kept per completion, a queue entry say, would by tens of bytes
// each. The paper's cadence is one signal per thousand writes; one per ten
// makes a per-completion residue a hundred times louder for the same number
// of writes.
func TestCompletionsRetainNothing(t *testing.T) {
	sim := simnet.New(1)
	f := NewFabric(sim, DefaultParams())
	src, dst := f.AddNode("src"), f.AddNode("dst")
	qp := src.Connect(dst)
	qp.SignalEvery = 10
	mr := dst.RegisterMemory(64)
	data := make([]byte, 64)
	post := func(writes int) {
		for i := 0; i < writes; i += 100 {
			for j := 0; j < 100; j++ {
				if _, err := qp.Write(mr, 0, data); err != nil {
					t.Fatal(err)
				}
			}
			sim.RunFor(100 * time.Microsecond)
		}
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	post(20_000)
	before := live()
	post(100_000)
	after := live()
	if qp.outstanding != 0 || len(qp.parked) != 0 || len(qp.parkedAcks) != 0 || sim.Pending() != 0 {
		t.Fatalf("QP not quiescent: outstanding %d, parked %d, parked acks %d, pending events %d",
			qp.outstanding, len(qp.parked), len(qp.parkedAcks), sim.Pending())
	}
	if grew := int64(after) - int64(before); grew > 32<<10 {
		t.Fatalf("live heap grew %d B over 10000 completions, want none retained", grew)
	}
}
