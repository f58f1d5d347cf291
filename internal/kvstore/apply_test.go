package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// refDecodeOp and refStore are the apply path ApplyAt replaced — decode the
// payload into an owned Op, then hand it to the store — kept as the reference
// the differential test compares against.
func refDecodeOp(b []byte) (Op, error) {
	if len(b) < 15 {
		return Op{}, fmt.Errorf("kvstore: short op (%d bytes)", len(b))
	}
	kl := int(binary.LittleEndian.Uint16(b[9:]))
	vl := int(binary.LittleEndian.Uint32(b[11:]))
	if 15+kl+vl > len(b) {
		return Op{}, fmt.Errorf("kvstore: truncated op")
	}
	if 15+kl+vl != len(b) {
		return Op{}, fmt.Errorf("kvstore: %d trailing bytes after op", len(b)-15-kl-vl)
	}
	o := Op{
		ID:   binary.LittleEndian.Uint64(b),
		Kind: OpKind(b[8]),
		Key:  string(b[15 : 15+kl]),
	}
	if vl > 0 {
		o.Value = append([]byte(nil), b[15+kl:15+kl+vl]...)
	}
	switch o.Kind {
	case OpCreate, OpSet, OpDelete:
	default:
		return Op{}, fmt.Errorf("kvstore: unknown op kind %d", o.Kind)
	}
	return o, nil
}

type refStore struct {
	m       map[string][]byte
	applied uint64
}

func (s *refStore) applyAt(payload []byte) error {
	o, err := refDecodeOp(payload)
	if err != nil {
		return err
	}
	s.applied++
	switch o.Kind {
	case OpCreate, OpSet:
		s.m[o.Key] = o.Value
	case OpDelete:
		delete(s.m, o.Key)
	}
	return nil
}

// corrupt returns enc damaged in one of the ways a decoder must refuse; some
// of them trip two checks at once, so the order of the checks shows.
func corrupt(rng *rand.Rand, enc []byte) []byte {
	b := append([]byte(nil), enc...)
	switch rng.Intn(6) {
	case 0:
		return b[:rng.Intn(15)]
	case 1:
		return b[:15+rng.Intn(len(b)-14)-1]
	case 2:
		return append(b, make([]byte, 1+rng.Intn(4))...)
	case 3:
		b[8] = byte(4 + rng.Intn(252))
	case 4: // unknown kind and truncated
		b[8] = 0
		return b[:len(b)-1]
	case 5: // unknown kind and trailing bytes
		b[8] = 0
		binary.LittleEndian.PutUint16(b[9:], 0)
		return append(b, 1)
	}
	return b
}

// TestApplyAtDifferential drives ApplyAt and the decode-then-apply reference
// with the same random stream — creates, sets and deletes over a small key
// space, value lengths that change and repeat, empty values, and corrupt
// encodings — and compares every observable after every step.
func TestApplyAtDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rm := NewReplicated(nil, 1)
		ref := &refStore{m: map[string][]byte{}}
		keys := make([]string, 12)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%0*d", 1+rng.Intn(40), i)
		}
		for step := 0; step < 2000; step++ {
			op := Op{ID: uint64(step), Kind: OpKind(1 + rng.Intn(3)), Key: keys[rng.Intn(len(keys))]}
			if op.Kind != OpDelete || rng.Intn(4) == 0 { // a delete may carry a value; it is ignored
				op.Value = make([]byte, []int{0, 0, 1, 10, 10, 10, 100, 1000}[rng.Intn(8)])
				rng.Read(op.Value)
			}
			enc := op.Encode()
			if rng.Intn(10) == 0 {
				enc = corrupt(rng, enc)
			}
			want, got := ref.applyAt(enc), rm.ApplyAt(0, enc)
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("seed %d step %d: ApplyAt(%x) = %v, reference %v", seed, step, enc, got, want)
			}
			if _, err := DecodeOp(enc); fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d: DecodeOp(%x) = %v, reference %v", seed, step, enc, err, want)
			}
			s := rm.Stores[0]
			if s.Applied != ref.applied || s.Len() != len(ref.m) {
				t.Fatalf("seed %d step %d: applied %d, %d keys; reference %d, %d",
					seed, step, s.Applied, s.Len(), ref.applied, len(ref.m))
			}
			for _, k := range keys {
				gv, gok := rm.Get(0, k)
				wv, wok := ref.m[k]
				if gok != wok || !bytes.Equal(gv, wv) {
					t.Fatalf("seed %d step %d: Get(%q) = %x/%v, reference %x/%v", seed, step, k, gv, gok, wv, wok)
				}
				if cap(gv) != len(gv) {
					t.Fatalf("seed %d step %d: Get(%q) has room for %d more bytes: an append would reach the store", seed, step, k, cap(gv)-len(gv))
				}
			}
		}
	}
}

// TestApplyAtAllocFree: a set to a key the store already holds, at the length
// it holds, overwrites the value in place — the steady state of a zipfian
// write stream.
func TestApplyAtAllocFree(t *testing.T) {
	for _, size := range []int{10, 100, 1000} {
		rm := NewReplicated(nil, 1)
		ops := make([][]byte, 64)
		for i := range ops {
			v := bytes.Repeat([]byte{byte(i)}, size)
			ops[i] = Op{ID: uint64(i), Kind: OpSet, Key: fmt.Sprintf("user%016d", i%8), Value: v}.Encode()
			if err := rm.ApplyAt(0, ops[i]); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		if n := testing.AllocsPerRun(1000, func() {
			if err := rm.ApplyAt(0, ops[i%len(ops)]); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Errorf("%d-byte values: %v allocs per ApplyAt to an existing key, want 0", size, n)
		}
	}
}

// TestApplyAtKeepsNothing: the payload is a view into a ring the sender
// overwrites once the delivery returns. Scribbling over it afterwards must
// not reach the store, on the insert path or on the in-place one.
func TestApplyAtKeepsNothing(t *testing.T) {
	rm := NewReplicated(nil, 1)
	for _, value := range []string{"first", "again", "longer now", ""} {
		payload := Op{Kind: OpSet, Key: "k", Value: []byte(value)}.Encode()
		if err := rm.ApplyAt(0, payload); err != nil {
			t.Fatal(err)
		}
		for i := range payload {
			payload[i] = 0xee
		}
		if got, ok := rm.Get(0, "k"); !ok || string(got) != value || rm.Stores[0].Len() != 1 {
			t.Fatalf("after the payload was overwritten: k = %q/%v in %d keys, want %q", got, ok, rm.Stores[0].Len(), value)
		}
	}
}

// TestApplyAtInsertAllocFree: a key's first write carves its bytes and its
// value from the store's arena, so 10 000 new keys allocate at most one
// object per hundred inserts (a key string and a value copy each were two).
func TestApplyAtInsertAllocFree(t *testing.T) {
	const n = 10000
	ops := make([][]byte, n)
	for i := range ops {
		ops[i] = Op{ID: uint64(i), Kind: OpSet, Key: fmt.Sprintf("user%016d", i), Value: bytes.Repeat([]byte{byte(i)}, 100)}.Encode()
	}
	rm := NewReplicated(nil, 1)
	before, after := memSpan(func() {
		for _, op := range ops {
			if err := rm.ApplyAt(0, op); err != nil {
				t.Fatal(err)
			}
		}
	})
	if objs := after.Mallocs - before.Mallocs; objs > n/100 {
		t.Fatalf("inserting %d keys allocated %d objects, want <= %d", n, objs, n/100)
	} else {
		t.Logf("inserting %d keys allocated %d objects", n, objs)
	}
	if rm.Stores[0].Len() != n {
		t.Fatalf("%d keys, want %d", rm.Stores[0].Len(), n)
	}
}

// TestApplyAtChurnAllocFree: sets, deletes and re-sets over a fixed keyspace,
// with value lengths that change, reuse each key's bytes and slot once every
// key has held its longest value: nothing is allocated, and the arena carves
// nothing more however long the churn runs.
func TestApplyAtChurnAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([][]byte, 4096)
	for i := range ops {
		op := Op{ID: uint64(i), Kind: []OpKind{OpCreate, OpSet, OpSet, OpDelete}[rng.Intn(4)], Key: fmt.Sprintf("key-%d", rng.Intn(64))}
		if op.Kind != OpDelete {
			op.Value = make([]byte, []int{0, 10, 64, 100}[rng.Intn(4)])
		}
		ops[i] = op.Encode()
	}
	rm := NewReplicated(nil, 1)
	s := rm.Stores[0]
	i := 0
	churn := func() {
		if err := rm.ApplyAt(0, ops[i%len(ops)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 4 * len(ops) {
		churn()
	}
	free := s.free
	if n := testing.AllocsPerRun(20*len(ops), churn); n != 0 {
		t.Fatalf("%v allocs per op of the churn, want 0", n)
	}
	if unsafe.SliceData(s.free) != unsafe.SliceData(free) || len(s.free) != len(free) {
		t.Fatalf("the churn carved more of the arena: %d bytes left of the chunk, was %d", len(s.free), len(free))
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
